"""Command-line surface.

Subcommands cover the whole pipeline: parameter derivation (params),
instance material generation (sample), key encapsulation and recovery
(encap/decap), hybrid file encryption (he-encrypt/he-decrypt), combiner
demonstration (combine), and the security-game harness (game).

Exit codes: 0 success, 1 usage or format error, 2 infeasible parameters,
3 decapsulation/decryption rejection, 4 a game estimate exceeded its
declared bound beyond the confidence slack.

Instance materials live in separate JSON files, one per role, so the
sender, receiver and observer strings can be delivered to different
machines.  Every command that draws randomness takes --seed (hex); runs
with the same seed are byte-identical, and without it the generator is
seeded from OS entropy.

Each command imports only the layers it runs: hybrid, combiner and games
load inside their handlers, because every command is a fresh process whose
start-up is mostly imports.  No command loads numpy: only the exact
analyzer games.exact_distance imports it, and game runs none.  No command
loads inspect or ast: the value classes (prekem.value) compile no code at
import.  Only the commands that encrypt or combine load OpenSSL
(cryptography, and hashlib for a DEM key narrower than 256 bits).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

from .dem import DemProfile
from .errors import GameRuleError, InfeasibleError, MalformedError
from .ikem import (
    IkemInstance,
    IkemParams,
    Mode,
    check_enumerable,
    correctness_bound,
    decap,
    derive_params_baseline,
    derive_params_cca,
    derive_params_cea,
    distance_bound,
    encap,
    forgery_bound,
    gen,
    parse_ciphertext_for,
    serialize_ciphertext,
)
from .source import from_json, read_field

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_REJECT = 3
EXIT_BOUND = 4


# ---------------------------------------------------------------------------
# small I/O helpers

def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise MalformedError(f"cannot read {path}: {e}") from None


def _read_json(path: str) -> dict:
    raw = _read_file(path)
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as e:  # bad text, too deeply nested
        raise MalformedError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise MalformedError(f"{path} must hold a JSON object")
    return doc


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _dem_profile(sub: Optional[dict], where: str) -> Optional[DemProfile]:
    """The DemProfile a document's sub-object holds, or None for none."""
    if sub is None:
        return None
    enc_len = read_field(sub, "enc_len", where, int)
    mac_bits = read_field(sub, "mac_bits", where, int)
    try:
        return DemProfile(enc_len=enc_len, mac_bits=mac_bits)
    except ValueError as e:  # field widths out of range
        raise MalformedError(f"'{where}': {e}") from None


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _is_hex(text: str) -> bool:
    """Non-empty and ASCII hex digits only.  int(..., 16) alone would also
    take other scripts' digits, a 0x prefix, '_', a sign or whitespace."""
    return bool(text) and _HEX_DIGITS.issuperset(text)


def _hex_symbols(text: str, what: str) -> Tuple[int, ...]:
    """One symbol per hex digit of text."""
    if not _is_hex(text):
        raise MalformedError(f"{what} has non-hex symbols")
    return tuple(int(ch, 16) for ch in text)


def _seed_arg(text: str) -> int:
    if not _is_hex(text):
        raise MalformedError(f"--seed must be hex, got {text!r}")
    return int(text, 16)


def _rng_for(args) -> random.Random:
    if getattr(args, "seed", None) is not None:
        return random.Random(_seed_arg(args.seed))
    return random.Random(int.from_bytes(os.urandom(32), "big"))


def _jnum(value):
    # Fractions go through strings so exact tables survive the round trip
    return str(value) if isinstance(value, Fraction) else float(value)


# ---------------------------------------------------------------------------
# parameter-file round trip

def _source_doc(spec) -> dict:
    if spec.bsc is not None:
        p, q = spec.bsc
        return {"bsc": {"p": _jnum(p), "q": _jnum(q), "n": spec.n}}
    cells = []
    for x in range(spec.nx):
        for y in range(spec.ny):
            for z in range(spec.nz):
                pr = spec.p(x, y, z)
                if pr:
                    cells.append([x, y, z, _jnum(pr)])
    return {"alphabet": [spec.nx, spec.ny, spec.nz], "n": spec.n,
            "pxyz": cells}


def params_to_doc(params: IkemParams,
                  dem: Optional[DemProfile] = None) -> dict:
    doc = {
        "mode": params.mode.name.lower(),
        "source": _source_doc(params.source),
        "n": params.n,
        "t": params.t,
        "ell": params.ell,
        "nu": float(params.nu),
        "r": params.r,
        "w": params.w,
        "sigma": float(params.sigma),
        "q_e": params.q_e,
        "q_d": params.q_d,
    }
    if params.eps is not None:
        doc["eps"] = float(params.eps)
    if params.delta is not None:
        doc["delta"] = float(params.delta)
    if dem is not None:
        doc["dem"] = {"enc_len": dem.enc_len, "mac_bits": dem.mac_bits}
    return doc


def params_from_doc(doc: dict) -> Tuple[IkemParams, DemProfile]:
    where = "parameter file"
    mode = Mode.from_name(read_field(doc, "mode", where, str))
    source = from_json(read_field(doc, "source", where, dict))
    params = IkemParams(
        mode=mode, source=source,
        n=read_field(doc, "n", where, int), t=read_field(doc, "t", where, int),
        ell=read_field(doc, "ell", where, int),
        nu=read_field(doc, "nu", where, float),
        r=read_field(doc, "r", where, int, 0),
        w=read_field(doc, "w", where, int),
        sigma=read_field(doc, "sigma", where, float, 0.5),
        q_e=read_field(doc, "q_e", where, int, 0),
        q_d=read_field(doc, "q_d", where, int, 0),
        eps=read_field(doc, "eps", where, float, None),
        delta=read_field(doc, "delta", where, float, None))
    dem = _dem_profile(read_field(doc, "dem", where, dict, None), "dem")
    return params, dem or DemProfile()


def _load_params(path: str) -> Tuple[IkemParams, DemProfile]:
    return params_from_doc(_read_json(path))


# ---------------------------------------------------------------------------
# instance-material files

def _write_material(path: Path, role: str, symbols) -> None:
    _write_json(str(path), {
        "role": role,
        "n": len(symbols),
        "symbols": "".join(format(s, "x") for s in symbols),
    })


def _read_material(path: str, role: str, n: int, alphabet: int):
    doc = _read_json(path)
    held = read_field(doc, "role", path, str)
    if held != role:
        raise MalformedError(f"{path} holds role {held!r}, expected {role!r}")
    text = read_field(doc, "symbols", path, str)
    if read_field(doc, "n", path, int) != n or len(text) != n:
        raise MalformedError(f"{path} length does not match n = {n}")
    symbols = _hex_symbols(text, path)
    if any(s >= alphabet for s in symbols):
        raise MalformedError(f"{path} has symbols outside the alphabet")
    return symbols


def _write_public(path: Path, seed: int, n: int) -> None:
    _write_json(str(path), {
        "role": "public",
        "n": n,
        "seed": seed.to_bytes((n + 7) // 8, "big").hex(),
    })


def _read_public(path: str, n: int) -> int:
    doc = _read_json(path)
    if read_field(doc, "role", path, str) != "public":
        raise MalformedError(f"{path} does not hold the public seed")
    if read_field(doc, "n", path, int) != n:
        raise MalformedError(f"{path} width does not match n = {n}")
    text = read_field(doc, "seed", path, str)
    if not _is_hex(text):
        raise MalformedError(f"{path} has a non-hex seed")
    seed = int(text, 16)
    if seed >= (1 << n):
        raise MalformedError(f"{path} seed is wider than n bits")
    return seed


def _public_for(args, params: IkemParams) -> Optional[int]:
    given = getattr(args, "public", None)
    if params.mode is Mode.CEA:
        if given is None:
            raise MalformedError(
                "the shared-seed mode needs --public (from 'sample')")
        return _read_public(given, params.n)
    if given is not None:
        raise MalformedError(
            "--public applies only to the shared-seed mode")
    return None


def _write_key(path: str, key) -> None:
    _write_json(path, {"role": "key", "ell": key.ell,
                       "key": key.to_bytes().hex()})


# ---------------------------------------------------------------------------
# params

def cmd_params(args) -> int:
    doc = _read_json(args.config)
    where = "config"
    source = from_json(read_field(doc, "source", where, dict))
    sigma = read_field(doc, "sigma", where, float)
    q_e = read_field(doc, "q_e", where, int, 0)
    q_d = read_field(doc, "q_d", where, int, 0)
    nu = read_field(doc, "nu", where, float, None)
    ell = read_field(doc, "ell", where, int, None)
    eps = read_field(doc, "eps", where, float, None)
    dem = _dem_profile(read_field(doc, "dem", where, dict, None), "dem")
    try:
        if args.mode == "cca":
            if eps is None:
                raise MalformedError("the authenticated mode needs 'eps'")
            delta = read_field(doc, "delta", where, float)
            params = derive_params_cca(
                source, eps, sigma, delta, q_e, q_d, nu=nu,
                t=read_field(doc, "t", where, int, None), ell=ell)
        else:
            t = read_field(doc, "t", where, int)
            derive = (derive_params_cea if args.mode == "cea"
                      else derive_params_baseline)
            params = derive(source, sigma, q_e, t, nu=nu, eps=eps, ell=ell)
        check_enumerable(params)
    except InfeasibleError as e:
        print(f"{'verdict':<14}infeasible: {e}")
        return EXIT_INFEASIBLE

    rows = [
        ("mode", params.mode.name.lower()),
        ("n", params.n),
        ("nu", f"{params.nu:.4f}"),
        ("t", params.t),
        ("ell", params.ell),
        ("sigma", f"{params.sigma:.6g}"),
        ("q_e", params.q_e),
        ("q_d", params.q_d),
        ("distance<=", f"{distance_bound(params):.6g}"),
    ]
    try:
        rows.append(("fail<=", f"{correctness_bound(params):.6g}"))
    except InfeasibleError:
        pass
    if params.mode is Mode.CCA:
        rows.append(("forge<=", f"{forgery_bound(params):.6g}"))
    for name, value in rows:
        print(f"{name:<14}{value}")
    print(f"{'verdict':<14}feasible")
    if args.out:
        _write_json(args.out, params_to_doc(params, dem))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample / encap / decap

def cmd_sample(args) -> int:
    params, _ = _load_params(args.config)
    rng = _rng_for(args)
    inst = gen(params, rng)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for role, symbols in (("x", inst.x), ("y", inst.y), ("z", inst.z)):
        path = outdir / f"{role}.json"
        _write_material(path, role, symbols)
        written.append(path)
    if inst.public_seed is not None:
        path = outdir / "public.json"
        _write_public(path, inst.public_seed, params.n)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_encap(args) -> int:
    params, _ = _load_params(args.config)
    x = _read_material(args.x, "x", params.n, params.source.nx)
    public = _public_for(args, params)
    rng = _rng_for(args)
    key, c = encap(params, x, rng, public)
    Path(args.out).write_bytes(serialize_ciphertext(params, c))
    _write_key(args.key_out, key)
    print(f"ciphertext {args.out}")
    print(f"key        {args.key_out}")
    return EXIT_OK


def cmd_decap(args) -> int:
    params, _ = _load_params(args.config)
    y = _read_material(args.y, "y", params.n, params.source.ny)
    public = _public_for(args, params)
    raw = _read_file(args.ciphertext)
    key = decap(params, y, parse_ciphertext_for(params, raw), public)
    if key is None:
        print("rejected: no unique reconciliation", file=sys.stderr)
        return EXIT_REJECT
    if args.out:
        _write_key(args.out, key)
        print(f"key        {args.out}")
    else:
        print(f"key        {key.to_bytes().hex()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hybrid encryption

def cmd_he_encrypt(args) -> int:
    from .hybrid import HybridScheme, he_encrypt, serialize_envelope

    params, dem = _load_params(args.config)
    scheme = HybridScheme.for_params(params, dem)
    x = _read_material(args.x, "x", params.n, params.source.nx)
    public = _public_for(args, params)
    rng = _rng_for(args)
    env = he_encrypt(scheme, x, _read_file(args.infile), rng, public)
    blob = serialize_envelope(scheme, env)
    Path(args.out).write_bytes(blob)
    print(f"envelope   {args.out} ({len(blob)} bytes)")
    return EXIT_OK


def cmd_he_decrypt(args) -> int:
    from .hybrid import (HybridScheme, he_decrypt, parse_envelope,
                         split_envelope)

    params, dem = _load_params(args.config)
    scheme = HybridScheme.for_params(params, dem)
    y = _read_material(args.y, "y", params.n, params.source.ny)
    public = _public_for(args, params)
    data = _read_file(args.infile)
    # a damaged outer frame is a format error; damage inside the payloads
    # is the decapsulator's rejection
    split_envelope(data)
    try:
        env = parse_envelope(scheme, data)
        message = he_decrypt(scheme, y, env, public)
    except MalformedError:
        message = None
    if message is None:
        print("rejected: envelope did not authenticate", file=sys.stderr)
        return EXIT_REJECT
    Path(args.out).write_bytes(message)
    print(f"message    {args.out} ({len(message)} bytes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# combiner

def cmd_combine(args) -> int:
    from .combiner import (CombinedKem, IkemComponent, serialize_combined,
                           test_double_kem)

    if args.core == "xor" and args.bits is not None:
        raise MalformedError("--bits applies only to the ptx core")
    params, _ = _load_params(args.config)
    x = _read_material(args.x, "x", params.n, params.source.nx)
    y = _read_material(args.y, "y", params.n, params.source.ny)
    public = _public_for(args, params)
    rng = _rng_for(args)
    inst = IkemInstance(x, y, (0,) * params.n, public)
    first = IkemComponent(params, inst)
    if args.core == "xor":
        second = test_double_kem(params.ell, rng, broken=args.broken_second)
        kem = CombinedKem(first, second, core="xor")
    else:
        second = test_double_kem(256, rng, broken=args.broken_second)
        kem = CombinedKem(first, second, core="ptx", out_bits=args.bits,
                          q_d=params.q_d)
    key, c = kem.enc(rng)
    if key is None:
        print("rejected: combiner produced no key", file=sys.stderr)
        return EXIT_REJECT
    Path(args.out).write_bytes(serialize_combined(c))
    _write_key(args.key_out, key)
    recovered = kem.dec(c)
    if recovered != key:
        print("rejected: receiver key mismatch", file=sys.stderr)
        return EXIT_REJECT
    print(f"ciphertext {args.out}")
    print(f"key        {args.key_out}")
    print(f"core       {args.core} ({key.ell} bits, round trip ok)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# games

# Per game kind: its adversaries by name, the default first, each built
# from the games module (imported on first use); then the entry fields its
# run reads, as read_field's (key, kind, default), with no default where
# the field is required.
_GAMES = {
    "pkind": ({"random": lambda g: g.RandomGuessPkind(),
               "cheat": lambda g: g.CheatingPkind(),
               "bayes": lambda g: g.BayesPkind(),
               "bayes-probe": lambda g: g.BayesPkind(probe=True)},
              (("atk", str), ("params", dict), ("target", str, None),
               ("leak", bool, False), ("q_e", int, 0), ("q_d", int, 0))),
    "kint": ({"random": lambda g: g.RandomCiphertextForger(),
              "brute": lambda g: g.BruteForceKint(),
              "brute-query": lambda g: g.BruteForceKint(use_query=True)},
             (("params", dict), ("target", str, None), ("q_e", int, 1),
              ("q_d", int, 0))),
    "dem": ({"contrast": lambda g: g.ContrastDemDistinguisher()},
            (("atk", str), ("profile", dict, None), ("stub", str, None),
             ("q_e", int, 0), ("q_d", int, 0))),
    "pri": ({"random": lambda g: g.RandomGuessPri()},
            (("family", dict), ("bound", float, None), ("q_e", int, 0),
             ("q_d", int, 0))),
}


def _prf_family(games, doc: dict):
    where = "family"
    kind = read_field(doc, "kind", where, str)
    out_bits = read_field(doc, "out_bits", where, int)
    if kind == "it":
        return games.it_prf_family(read_field(doc, "key_bits", where, int),
                                   read_field(doc, "q_d", where, int, 0),
                                   out_bits)
    if kind == "comp":
        return games.comp_prf_family(out_bits)
    raise MalformedError(f"unknown PRF family {kind!r}")


def _run_game_doc(doc: dict, trials: int, seed: int):
    from . import games

    where = "game config"
    kind = read_field(doc, "game", where, str)
    if kind not in _GAMES:
        raise MalformedError(f"unknown game {kind!r}")
    adversaries, fields = _GAMES[kind]
    name = read_field(doc, "adversary", where, str, next(iter(adversaries)))
    if name not in adversaries:
        raise MalformedError(f"unknown {kind} adversary {name!r} "
                             f"(known: {', '.join(adversaries)})")
    adversary = adversaries[name](games)
    f = {key: read_field(doc, key, where, *spec) for key, *spec in fields}
    budgets = dict(trials=trials, q_e=f["q_e"], q_d=f["q_d"], seed=seed)
    if kind == "dem":
        dem = _dem_profile(f["profile"], "profile") or DemProfile()
        config = games.GameConfig(atk=f["atk"], dem=dem, **budgets)
        if f["stub"] is None:
            return games.run_dem_ind(config, adversary)
        if f["stub"] != "identity":
            raise MalformedError("the only DEM stub is 'identity'")
        return games.run_dem_ind(config, adversary,
                                 encrypt=games.identity_dem_encrypt,
                                 decrypt=games.identity_dem_decrypt)
    if kind == "pri":
        return games.run_pri(games.GameConfig(atk="pri", **budgets),
                             _prf_family(games, f["family"]), adversary,
                             bound=f["bound"])
    params, _ = params_from_doc(f["params"])
    target = f["target"]
    if target is not None:
        target = _hex_symbols(target, "target")
        if len(target) != params.n:
            raise MalformedError(f"target length must be n = {params.n}")
    if kind == "kint":
        return games.run_kint(games.GameConfig(
            atk="kint", params=params, target=target, **budgets), adversary)
    return games.run_pkind(games.GameConfig(
        atk=f["atk"], params=params, target=target, leak=f["leak"],
        **budgets), adversary)


def cmd_game(args) -> int:
    doc = _read_json(args.config)
    games = read_field(doc, "games", "game config", list, [doc])
    if not games:
        raise MalformedError("'games' must be a non-empty list")
    if args.seed is not None:
        base_seed = _seed_arg(args.seed)
    else:
        base_seed = int.from_bytes(os.urandom(8), "big")
    lines = []
    exceeded = False
    for index, game_doc in enumerate(games):
        if not isinstance(game_doc, dict):
            raise MalformedError("each game entry must be an object")
        trials = args.trials
        if trials is None:
            trials = read_field(game_doc, "trials", "game entry", int, 1000)
        report = _run_game_doc(game_doc, trials, base_seed + index)
        line = report.to_json_line()
        print(line)
        lines.append(line)
        if report.exceeds_bound():
            exceeded = True
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines))
    return EXIT_BOUND if exceeded else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prekem",
        description="Hybrid encryption from correlated randomness: "
                    "parameters, keys, files and security games.")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("params", help="derive and print parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True,
                   choices=sorted(m.name.lower() for m in Mode))
    p.add_argument("--out", help="write the derived parameter file here")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("sample", help="draw instance materials")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", help="hex seed for reproducible draws")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("encap", help="encapsulate a fresh key")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True, help="sender material file")
    p.add_argument("--public", help="public seed file (shared-seed mode)")
    p.add_argument("--seed")
    p.add_argument("--out", required=True, help="ciphertext file")
    p.add_argument("--key-out", required=True, help="key file")
    p.set_defaults(func=cmd_encap)

    p = sub.add_parser("decap", help="recover a key from a ciphertext")
    p.add_argument("--config", required=True)
    p.add_argument("--y", required=True, help="receiver material file")
    p.add_argument("--public")
    p.add_argument("--ciphertext", required=True)
    p.add_argument("--out", help="key file (default: print)")
    p.set_defaults(func=cmd_decap)

    p = sub.add_parser("he-encrypt", help="encrypt a file into an envelope")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--public")
    p.add_argument("--seed")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_he_encrypt)

    p = sub.add_parser("he-decrypt", help="open an envelope")
    p.add_argument("--config", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--public")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_he_decrypt)

    p = sub.add_parser("combine", help="run the two-component combiner")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--public")
    p.add_argument("--seed")
    p.add_argument("--core", choices=("xor", "ptx"), default="xor")
    p.add_argument("--bits", type=int, help="combined key length (ptx)")
    p.add_argument("--broken-second", action="store_true",
                   help="replace the second component with a failed stub")
    p.add_argument("--out", required=True, help="combined ciphertext file")
    p.add_argument("--key-out", required=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("game", help="run security games from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed")
    p.add_argument("--trials", type=int, help="override per-game trial count")
    p.add_argument("--out", help="also write the JSON lines here")
    p.set_defaults(func=cmd_game)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the usage exit code
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (MalformedError, GameRuleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
