"""cli-pipeline: the README walkthrough as sequential `prekem` commands.

One cycle is one pipeline in a fresh directory: params, sample, encap, decap,
he-encrypt and he-decrypt of a 1 MiB file (CEA + ot), then combine --core
xor; each op is one command, run as a `python -m prekem.cli` child process,
one at a time.  This is the only workload that measures the cli layer, and
a command's time is mostly interpreter start and `import prekem.cli` (numpy
via games), so it catches import-time and config-loader regressions.  The
children read the bytecode cache that bench/run.py warms before measuring,
because users do not pay for compiling on every run.

Every command that draws randomness gets a hex seed drawn from the workload
seed.  Set-up keeps drawing until the library, seeded the way the CLI seeds
it (random.Random of the hex value), recovers every key, so that decap and
combine succeed by construction rather than by luck of the seed.  Checks:
exit codes are 0, the decapsulated key file equals the encapsulated one, the
opened file equals the input, and every pipeline's outputs and stdout are
byte-identical to the first pipeline's.

In-process mode (traced runs) calls prekem.cli.main(argv) instead, from the
pipeline directory, with stdout and stderr captured.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from prekem import cli, combiner, ikem

from common import SRC, WORK, CheckFailed, op_rng, run_child

NAME = "cli-pipeline"
CONFIG = {
    "source": {"bsc": {"p": "1/20", "q": "1/2", "n": 24}},
    "sigma": 0.25,
    "t": 14,
    "nu": 12,
    "dem": {"enc_len": 8, "mac_bits": 8},
}
MESSAGE_BYTES = 1 << 20
COMMAND_TIMEOUT_S = 120
SEED_DRAWS = 100
STARTUP_REPEATS = 5


def _steps(s_sample: str, s_encap: str, s_he: str, s_combine: str):
    """(command, arguments, files it writes), paths relative to the pipeline."""
    pub = ("--public", "mat/public.json")
    return (
        ("params", ("--config", "../config.json", "--mode", "cea",
                    "--out", "params.json"), ("params.json",)),
        ("sample", ("--config", "params.json", "--seed", s_sample,
                    "--out-dir", "mat"),
         ("mat/x.json", "mat/y.json", "mat/z.json", "mat/public.json")),
        ("encap", ("--config", "params.json", "--x", "mat/x.json", *pub,
                   "--seed", s_encap, "--out", "ct.bin", "--key-out", "key.json"),
         ("ct.bin", "key.json")),
        ("decap", ("--config", "params.json", "--y", "mat/y.json", *pub,
                   "--ciphertext", "ct.bin", "--out", "dkey.json"),
         ("dkey.json",)),
        ("he-encrypt", ("--config", "params.json", "--x", "mat/x.json", *pub,
                        "--seed", s_he, "--in", "../message.bin",
                        "--out", "env.bin"), ("env.bin",)),
        ("he-decrypt", ("--config", "params.json", "--y", "mat/y.json", *pub,
                        "--in", "env.bin", "--out", "opened.bin"),
         ("opened.bin",)),
        ("combine", ("--config", "params.json", "--x", "mat/x.json",
                     "--y", "mat/y.json", *pub, "--seed", s_combine,
                     "--core", "xor", "--out", "cmb.bin", "--key-out", "ckey.json"),
         ("cmb.bin", "ckey.json")),
    )


def pick_seeds(seed: int, params):
    """Hex seeds for sample, encap, he-encrypt and combine under which every
    key is recovered."""
    stream = op_rng(seed, NAME, -1)

    def first(ok):
        for _ in range(SEED_DRAWS):
            hexseed = format(stream.getrandbits(32), "x")
            if ok(random.Random(int(hexseed, 16))):
                return hexseed
        raise RuntimeError(f"no seed in {SEED_DRAWS} draws recovers the key")

    def round_trip(inst, rng):
        key, c = ikem.encap(params, inst.x, rng, inst.public_seed)
        return ikem.decap(params, inst.y, c, inst.public_seed) == key

    insts = []

    def good_instance(rng):
        insts.append(ikem.gen(params, rng))
        return round_trip(insts[-1], random.Random(0))

    s_sample = first(good_instance)
    inst = insts[-1]

    def combined(rng):
        second = combiner.test_double_kem(params.ell, rng)
        first_kem = combiner.IkemComponent(params, ikem.IkemInstance(
            inst.x, inst.y, (0,) * params.n, inst.public_seed))
        kem = combiner.CombinedKem(first_kem, second, core="xor")
        key, c = kem.enc(rng)
        return key is not None and kem.dec(c) == key

    s_encap = first(lambda rng: round_trip(inst, rng))
    s_he = first(lambda rng: round_trip(inst, rng))
    return s_sample, s_encap, s_he, first(combined)


class Workload:
    ops_per_cycle = 7

    def __init__(self, seed: int, inproc: bool = False) -> None:
        self.inproc = inproc
        self.child_rss_kib = 0
        self.pipelines = 0
        self.first = {}
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=NAME + "-", dir=WORK))
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "TMPDIR": str(self.dir),
                    "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        try:
            (self.dir / "config.json").write_text(json.dumps(CONFIG) + "\n")
            self.message = op_rng(seed, NAME, -2).randbytes(MESSAGE_BYTES)
            (self.dir / "message.bin").write_bytes(self.message)
            # running params once yields the exact parameters the later
            # commands load
            setup = self.dir / "setup"
            setup.mkdir()
            name, args, _ = _steps("0", "0", "0", "0")[0]
            code, _, _ = self._run(setup, [name, *args])
            if code != 0:
                raise CheckFailed(f"params exited {code} in set-up")
            params, _ = cli.params_from_doc(
                json.loads((setup / "params.json").read_text()))
            self.steps = _steps(*pick_seeds(seed, params))
        except BaseException:
            self.close()
            raise

    def warm(self) -> None:
        self.child_rss_kib = 0

    def _run(self, cwd: Path, argv):
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            here = os.getcwd()
            os.chdir(cwd)
            try:
                t0 = time.perf_counter()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(argv))
                elapsed = time.perf_counter() - t0
            finally:
                os.chdir(here)
            return code, elapsed, out.getvalue().encode()
        with open(cwd / ".stdout", "w+b") as out:
            code, elapsed, rss_kib = run_child(
                [sys.executable, "-m", "prekem.cli", *argv], COMMAND_TIMEOUT_S,
                cwd=cwd, env=self.env, stdout=out, stderr=subprocess.DEVNULL)
            self.child_rss_kib = max(self.child_rss_kib, rss_kib)
            out.seek(0)
            return code, elapsed, out.read()

    def op(self, i: int) -> float:
        slot = i % len(self.steps)
        if slot == 0:
            self.pipe = self.dir / f"pipe{self.pipelines}"
            self.pipelines += 1
            self.pipe.mkdir()
        name, args, outputs = self.steps[slot]
        code, elapsed, stdout = self._run(self.pipe, [name, *args])
        if code != 0:
            raise CheckFailed(f"{name} exited {code}")
        files = {rel: (self.pipe / rel).read_bytes() for rel in outputs}
        if name == "decap" and files["dkey.json"] != (self.pipe / "key.json").read_bytes():
            raise CheckFailed("decap key differs from the encap key")
        if name == "he-decrypt" and files["opened.bin"] != self.message:
            raise CheckFailed("opened file differs from the input")
        if self.first.setdefault(slot, (files, stdout)) != (files, stdout):
            raise CheckFailed(f"{name}: outputs differ from the first pipeline")
        if slot == len(self.steps) - 1:
            shutil.rmtree(self.pipe)
        return elapsed

    def peak_rss_kib(self) -> int:
        return self.child_rss_kib

    def finish(self):
        return []

    def trace_extras(self):
        """Interpreter start and `import prekem.cli`, each the median of
        STARTUP_REPEATS child processes."""
        def median_run(code):
            times = []
            for _ in range(STARTUP_REPEATS):
                status, elapsed, _ = run_child(
                    [sys.executable, "-c", code], COMMAND_TIMEOUT_S,
                    cwd=self.dir, env=self.env)
                if status != 0:
                    raise CheckFailed(f"python -c {code!r} exited {status}")
                times.append(elapsed)
            return statistics.median(times)
        start = median_run("pass")
        return {"cli.interp_start_s": start,
                "cli.import_s": median_run("import prekem.cli") - start}

    def report(self, op_s):
        n = len(self.steps)
        pipes = [sum(op_s[k:k + n]) for k in range(0, len(op_s) - n + 1, n)]
        rows = [("cli_pipeline_s", statistics.median(pipes), "s", len(pipes))]
        for slot, (name, _, _) in enumerate(self.steps):
            times = op_s[slot::n]
            rows.append((f"cmd_ms.{name}", statistics.median(times) * 1e3,
                         "ms", len(times)))
        rows.append(("decap_fail_ratio", 0.0, "ratio", len(pipes)))
        return rows

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
