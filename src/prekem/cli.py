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
start-up is mostly imports, and numpy (through games) is needed only by
game.
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
from .source import from_json, integer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_REJECT = 3
EXIT_BOUND = 4


# ---------------------------------------------------------------------------
# small I/O helpers

def _read_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise MalformedError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise MalformedError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise MalformedError(f"{path} must hold a JSON object")
    return doc


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise MalformedError(f"{where} is missing the '{key}' field")
    return doc[key]


def _typed(doc: dict, key: str, where: str, kind: type):
    """doc[key], which must be a JSON object (kind dict) or string (str)."""
    value = _require(doc, key, where)
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a string"
        raise MalformedError(f"{where} field '{key}' must be {name}")
    return value


_REQUIRED = object()


def _number(doc: dict, key: str, where: str, cast=int, default=_REQUIRED):
    """doc[key] read as an int or a float; absent or null gives default."""
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise MalformedError(f"{where} is missing the '{key}' field")
        return default
    try:
        if isinstance(value, bool):  # a JSON true is no number here
            raise ValueError
        return integer(value) if cast is int else cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise MalformedError(
            f"{where} field '{key}' must be {kind}, got {value!r}") from None


def _dem_profile(doc: dict, key: str, where: str) -> Optional[DemProfile]:
    """The DemProfile held in doc[key], or None when there is none."""
    if doc.get(key) is None:
        return None
    sub = _typed(doc, key, where, dict)
    enc_len = _number(sub, "enc_len", key)
    mac_bits = _number(sub, "mac_bits", key)
    try:
        return DemProfile(enc_len=enc_len, mac_bits=mac_bits)
    except ValueError as e:  # field widths out of range
        raise MalformedError(f"'{key}': {e}") from None


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
    mode = Mode.from_name(_require(doc, "mode", where))
    source = from_json(_require(doc, "source", where))
    params = IkemParams(
        mode=mode, source=source,
        n=_number(doc, "n", where), t=_number(doc, "t", where),
        ell=_number(doc, "ell", where),
        nu=_number(doc, "nu", where, float),
        r=_number(doc, "r", where, int, 0), w=_number(doc, "w", where),
        sigma=_number(doc, "sigma", where, float, 0.5),
        q_e=_number(doc, "q_e", where, int, 0),
        q_d=_number(doc, "q_d", where, int, 0),
        eps=_number(doc, "eps", where, float, None),
        delta=_number(doc, "delta", where, float, None))
    return params, _dem_profile(doc, "dem", where) or DemProfile()


def _load_params(path: str) -> Tuple[IkemParams, DemProfile]:
    return params_from_doc(_read_json(path))


# ---------------------------------------------------------------------------
# instance-material files

def _write_material(path: Path, role: str, symbols) -> None:
    if any(s > 15 for s in symbols):
        raise MalformedError(
            "material files encode one hex digit per symbol; alphabets "
            "wider than 16 are not representable")
    _write_json(str(path), {
        "role": role,
        "n": len(symbols),
        "symbols": "".join(format(s, "x") for s in symbols),
    })


def _read_material(path: str, role: str, n: int, alphabet: int):
    doc = _read_json(path)
    if doc.get("role") != role:
        raise MalformedError(
            f"{path} holds role {doc.get('role')!r}, expected {role!r}")
    text = _typed(doc, "symbols", path, str)
    if _number(doc, "n", path) != n or len(text) != n:
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
    if doc.get("role") != "public":
        raise MalformedError(f"{path} does not hold the public seed")
    if _number(doc, "n", path) != n:
        raise MalformedError(f"{path} width does not match n = {n}")
    text = _typed(doc, "seed", path, str)
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
    source = from_json(_require(doc, "source", "config"))
    sigma = _number(doc, "sigma", "config", float)
    q_e = _number(doc, "q_e", "config", int, 0)
    q_d = _number(doc, "q_d", "config", int, 0)
    nu = _number(doc, "nu", "config", float, None)
    ell = _number(doc, "ell", "config", int, None)
    eps = _number(doc, "eps", "config", float, None)
    dem = _dem_profile(doc, "dem", "config")
    try:
        if args.mode == "cca":
            if eps is None:
                raise MalformedError("the authenticated mode needs 'eps'")
            delta = _number(doc, "delta", "config", float)
            params = derive_params_cca(
                source, eps, sigma, delta, q_e, q_d, nu=nu,
                t=_number(doc, "t", "config", int, None), ell=ell)
        else:
            t = _number(doc, "t", "config")
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
    try:
        raw = Path(args.ciphertext).read_bytes()
    except OSError as e:
        raise MalformedError(f"cannot read {args.ciphertext}: {e}") from None
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
    try:
        message = Path(args.infile).read_bytes()
    except OSError as e:
        raise MalformedError(f"cannot read {args.infile}: {e}") from None
    env = he_encrypt(scheme, x, message, rng, public)
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
    try:
        data = Path(args.infile).read_bytes()
    except OSError as e:
        raise MalformedError(f"cannot read {args.infile}: {e}") from None
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

# adversary constructors, each given the games module (imported on first use)
_PKIND_ADVERSARIES = {
    "random": lambda g: g.RandomGuessPkind(),
    "cheat": lambda g: g.CheatingPkind(),
    "bayes": lambda g: g.BayesPkind(),
    "bayes-probe": lambda g: g.BayesPkind(probe=True),
}
_KINT_ADVERSARIES = {
    "random": lambda g: g.RandomCiphertextForger(),
    "brute": lambda g: g.BruteForceKint(),
    "brute-query": lambda g: g.BruteForceKint(use_query=True),
}


def _pick(table: dict, name: str, game: str, games):
    if name not in table:
        known = ", ".join(sorted(table))
        raise MalformedError(
            f"unknown {game} adversary {name!r} (known: {known})")
    return table[name](games)


def _target_from(doc: dict, params: IkemParams):
    if doc.get("target") is None:
        return None
    target = _hex_symbols(_typed(doc, "target", "game config", str), "target")
    if len(target) != params.n:
        raise MalformedError(f"target length must be n = {params.n}")
    return target


def _run_game_doc(doc: dict, trials: int, seed: int):
    from . import games

    kind = _require(doc, "game", "game config")
    q_e = _number(doc, "q_e", "game config", int, 0)
    q_d = _number(doc, "q_d", "game config", int, 0)
    adversary = str(doc.get("adversary", "random"))
    if kind == "pkind":
        params, _ = params_from_doc(
            _typed(doc, "params", "game config", dict))
        leak = doc.get("leak")
        if leak is not None and not isinstance(leak, bool):
            raise MalformedError("game config field 'leak' must be a boolean")
        config = games.GameConfig(
            atk=str(_require(doc, "atk", "game config")), trials=trials,
            q_e=q_e, q_d=q_d, seed=seed, params=params,
            target=_target_from(doc, params),
            leak=bool(leak))
        return games.run_pkind(
            config, _pick(_PKIND_ADVERSARIES, adversary, kind, games))
    if kind == "kint":
        params, _ = params_from_doc(
            _typed(doc, "params", "game config", dict))
        config = games.GameConfig(
            atk="kint", trials=trials, q_e=_number(doc, "q_e", "game config", int, 1), q_d=q_d,
            seed=seed, params=params, target=_target_from(doc, params))
        return games.run_kint(
            config, _pick(_KINT_ADVERSARIES, adversary, kind, games))
    if kind == "dem":
        config = games.GameConfig(
            atk=str(_require(doc, "atk", "game config")), trials=trials,
            q_e=q_e, q_d=q_d, seed=seed,
            dem=_dem_profile(doc, "profile", "game config") or DemProfile())
        if adversary != "contrast":
            raise MalformedError(
                f"unknown dem adversary {adversary!r} (known: contrast)")
        if doc.get("stub") == "identity":
            return games.run_dem_ind(config, games.ContrastDemDistinguisher(),
                                     encrypt=games.identity_dem_encrypt,
                                     decrypt=games.identity_dem_decrypt)
        if doc.get("stub") is not None:
            raise MalformedError("the only DEM stub is 'identity'")
        return games.run_dem_ind(config, games.ContrastDemDistinguisher())
    if kind == "pri":
        fam_doc = _typed(doc, "family", "game config", dict)
        fam_kind = _require(fam_doc, "kind", "family")
        out_bits = _number(fam_doc, "out_bits", "family")
        if fam_kind == "it":
            family = games.it_prf_family(
                _number(fam_doc, "key_bits", "family"),
                _number(fam_doc, "q_d", "family", int, 0), out_bits)
        elif fam_kind == "comp":
            family = games.comp_prf_family(out_bits)
        else:
            raise MalformedError(f"unknown PRF family {fam_kind!r}")
        config = games.GameConfig(atk="pri", trials=trials, q_e=q_e,
                                  q_d=q_d, seed=seed)
        if adversary != "random":
            raise MalformedError(
                f"unknown pri adversary {adversary!r} (known: random)")
        return games.run_pri(
            config, family, games.RandomGuessPri(),
            bound=_number(doc, "bound", "game config", float, None))
    raise MalformedError(f"unknown game {kind!r}")


def cmd_game(args) -> int:
    doc = _read_json(args.config)
    games = doc["games"] if "games" in doc else [doc]
    if not isinstance(games, list) or not games:
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
            trials = _number(game_doc, "trials", "game entry", int, 1000)
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
