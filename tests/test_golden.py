"""Golden CLI outputs: stdout bytes and exit codes, compared byte for byte.

The files under ``tests/golden/`` were recorded from the CLI and must not
change when the code behind it is restructured.  To record them again
after an intended change of output, run ``python tests/test_golden.py``
with ``src`` on the path, and review the diff.  A case may begin with
``NAME=value`` words, which set environment variables for that case
only, as a shell would.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from cycloribbon import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

README_EXAMPLES = [
    ["enumerate", "--n", "3", "--r", "2", "--shape", "2,1"],
    ["phi", "--ribbon", "1,1|2,1"],
    ["product", "--basis", "R", "--lhs", "2^1", "--rhs", "1^1"],
    ["coproduct", "--basis", "S", "--elt", "2^1"],
    ["induce-simples", "--lhs", "1,1|2,1", "--rhs", "2|1,2"],
    ["induce-hecke-projective", "--shape", "2,1", "--r", "2"],
    ["cartan", "--n", "2", "--r", "2", "--format", "csv"],
    ["decomp", "--n", "3", "--r", "2", "--format", "json"],
    ["dims", "--n", "3", "--r", "2"],
    ["oracle", "verify", "--n", "3", "--r", "2", "--u", "1,3"],
    ["oracle", "cross-check", "--max-grade", "3", "--r", "2"],
]

CASES = README_EXAMPLES + [
    [matrix, "--n", str(n), "--r", str(r), "--format", fmt]
    for matrix in ("cartan", "decomp")
    for n in range(5)
    for r in (1, 2)
    for fmt in ("json", "csv")
    if [matrix, "--n", str(n), "--r", str(r), "--format", fmt] not in README_EXAMPLES
] + [
    ["coproduct", "--basis", "F", "--elt", "2,1|1,2,1"],
    ["coproduct", "--basis", "R", "--elt", "2^1.1^2.1^1"],
    ["coproduct", "--basis", "S", "--elt", "2^1.1^2.1^1"],
    ["oracle", "verify", "--n", "3", "--r", "2", "--u=-5/6,0"],
    ["oracle", "verify", "--n", "4", "--r", "3"],
    ["oracle", "verify", "--n", "4", "--r", "3", "--u=5,6,7"],
    ["oracle", "verify", "--n", "3", "--r", "3", "--u=1/2,-3,0"],
    ["oracle", "verify", "--n", "1", "--r", "1"],
    ["oracle", "verify", "--n", "2", "--r", "4", "--u=1/2,-3,0,7"],
    ["oracle", "verify", "--n", "2", "--r", "2", "--u="],
    ["enumerate", "--n", "4", "--r", "3"],
    ["enumerate", "--n", "4", "--r", "3", "--anti"],
    ["enumerate", "--n", "5", "--r", "2", "--shape", "2,1,2", "--anti"],
    ["cartan", "--n", "5", "--r", "2", "--format", "csv"],
    ["cartan", "--n", "4", "--r", "3", "--format", "csv"],
    ["decomp", "--n", "4", "--r", "3", "--format", "csv"],
    ["induce-hecke-projective", "--shape", "1,2,1", "--r", "3"],
    ["oracle", "cross-check", "--max-grade", "4", "--r", "2"],
    ["oracle", "cross-check", "--max-grade", "3", "--r", "3"],
    ["oracle", "cross-check", "--max-grade", "2", "--r", "4"],
    ["dims", "--n", "5", "--r", "3"],
    ["coproduct", "--basis", "R", "--elt", "1^2.2^2.1^1"],
    ["coproduct", "--basis", "R", "--elt", "2^1.1^1.2^2"],
    ["coproduct", "--basis", "S", "--elt", "3^1.2^1"],
    ["decomp", "--n", "5", "--r", "2", "--format", "json"],
    ["cartan", "--n", "3", "--r", "4", "--format", "csv"],
    ["product", "--basis", "F", "--lhs", "1,1|2,1", "--rhs", "2|1,2"],
    ["product", "--basis", "S", "--lhs", "2^1.1^2", "--rhs", "1^1"],
    ["oracle", "verify", "--n", "0", "--r", "2"],
    ["product", "--basis", "F", "--lhs", "1,2|2,1,3", "--rhs", "2|1,3"],
    # r^n n! = 3840 is over the default cap of 2000
    ["CYCLORIBBON_MAX_DIM=3840", "oracle", "verify", "--n", "5", "--r", "2", "--u=2,-7"],
    # the census of 2^5 * 2^4 = 512 candidate characters is under the cap
    ["oracle", "cross-check", "--max-grade", "5", "--r", "2"],
]


def slug(argv):
    return re.sub(r"[^A-Za-z0-9=.^-]+", "_", " ".join(argv)).strip("_")


def split_env(argv):
    """The leading ``NAME=value`` words of a case as a dict, and the CLI
    arguments after them."""
    k = next((k for k, word in enumerate(argv)
              if not re.fullmatch(r"[A-Z_]+=.*", word)), len(argv))
    return dict(word.split("=", 1) for word in argv[:k]), list(argv[k:])


def run_cli(argv):
    env, args = split_env(argv)
    out = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue().encode()


def load_exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("argv", CASES, ids=slug)
def test_cli_output_matches_golden(argv):
    code, stdout = run_cli(argv)
    assert code == load_exit_codes()[slug(argv)]
    assert stdout == (GOLDEN / f"{slug(argv)}.stdout").read_bytes()


# golden cases whose output must not depend on the hash seed of the
# process: the relation checks, on the regular representation and on the
# induced modules of the cross-check, iterate over sets and dicts of tuples
HASH_SEED_CASES = [
    ["oracle", "verify", "--n", "3", "--r", "2", "--u", "1,3"],
    ["oracle", "verify", "--n", "3", "--r", "2", "--u=-5/6,0"],
    ["oracle", "verify", "--n", "4", "--r", "3"],
    ["oracle", "verify", "--n", "4", "--r", "3", "--u=5,6,7"],
    ["oracle", "verify", "--n", "3", "--r", "3", "--u=1/2,-3,0"],
    ["oracle", "verify", "--n", "2", "--r", "4", "--u=1/2,-3,0,7"],
    ["oracle", "cross-check", "--max-grade", "3", "--r", "3"],
]


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
@pytest.mark.parametrize("argv", HASH_SEED_CASES, ids=slug)
def test_oracle_verify_independent_of_hash_seed(argv, hash_seed):
    assert argv in CASES
    env, args = split_env(argv)
    env = dict(os.environ, **env, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "cycloribbon.cli", *args],
                          env=env, capture_output=True)
    assert proc.returncode == load_exit_codes()[slug(argv)]
    assert proc.stdout == (GOLDEN / f"{slug(argv)}.stdout").read_bytes()


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for argv in CASES:
        codes[slug(argv)], stdout = run_cli(argv)
        (GOLDEN / f"{slug(argv)}.stdout").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    record()
