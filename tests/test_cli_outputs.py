"""Every command's exact output bytes, pinned by sha256.

A change that must leave every printed number bit-identical runs this table
to show it did.  Each command runs in process through ``CliRunner``; the
output hashed is what the command writes to stdout and stderr together.
When a change alters an output on purpose, re-derive that command's hash
and say why in the change's notes.
"""

import hashlib
import shlex

import pytest
from click.testing import CliRunner

from qsa.cli import cli

OUTPUTS = [
    ("pgf --n 30 --format json", 0, "883244c600478018c618be1aa8f9373834eb5aba917f388adaa36f3465b80813"),
    ("oracle --n 8", 0, "65fd5cf7b883f11017974e9761fae4292aa72fb08db7574e783815e4a8eec996"),
    ("moment --n 40 --r 4", 0, "3c32ceb5674c1295d636f8babc4922d1f3a3be71bc62c2dbbae2bb81300590fd"),
    ("moments-table --nmax 30 --rmax 5", 0, "fdd20d295714e8d06ca729ad7863d1ebd7d857c338472c9c3fea41f928504175"),
    (
        "moments-table --nmax 15 --rmax 4 --source exact --kind raw --format json",
        0,
        "c61d624e30f398522488bb79fd07d9f6db2f6b408c6b38fb19c5eecfe1734e96",
    ),
    ("guess --r 3", 0, "810cd618913aed4e8b7635e7d675168d2788027ca0727ff32cbcf8add9950973"),
    ("limits --r 3..4 --precision 30", 0, "1acdfe15aafab563c3d82dbb86e26a09bce922d0523c5fef6e318f84677d3a5e"),
    ("limits --r 3..8 --precision 50", 0, "b5652edede9a6d6f3b8d0cf0d25cbccf09975d76575b5bcc9fbd372ca2a69007"),
    ("limits --r 3 --precision 100", 0, "95a6e9fac737c1a0f53add029dd4932704f5e0ace52fd0935f899098c1baca16"),
    ("tail --n 40 --x 192 --surrogate 40", 0, "f2bfc98d196ed7b2ba764b58d0e3c9a17c7f1ae736ed907791ef2cf9021b6f28"),
    ("tail --n 10034 --x 147579 --surrogate 40", 0, "b4d23e3afa702a0802f14c6b95556f290faa8dffca493e9d3155afa5bf899352"),
    ("density --n 30 --bin 0.1", 0, "8196cfd8b442424f43d0f48e87673a5fd9c3518e8d3a3d5b3d319e2004025f5c"),
    ("simulate --n 100 --trials 50 --seed 1", 0, "cbc3497da05276f3194f2ff333758db62f1b92a2d3f15324b89bb74cf1443ba4"),
    ("selection-count --n 10 --trials 2", 0, "b5eec4aca8851c137d785cecded7db622854a337d8d4bbc87e6ac0051540681a"),
    ("guess --r 9", 1, "e49af6211ece73eb3c2cc1ed8dba9f9db47f167a08a274875ee416e952a1a35a"),
    ("limits --r 3..9", 1, "e49af6211ece73eb3c2cc1ed8dba9f9db47f167a08a274875ee416e952a1a35a"),
    ("moment --n 3 --r 0", 2, "20873ea1db189dd335de24a78ce9ff84ac066b3965947d6e47eece825db2f9fa"),
]


@pytest.mark.parametrize(
    "command,exit_code,digest", OUTPUTS, ids=[c.replace(" ", "_") for c, _, _ in OUTPUTS]
)
def test_output_bytes_unchanged(command, exit_code, digest):
    result = CliRunner().invoke(cli, shlex.split(command))
    assert (result.exit_code, hashlib.sha256(result.output.encode()).hexdigest()) == (
        exit_code,
        digest,
    ), f"`qsa {command}` changed its output:\n{result.output[:2000]}"
