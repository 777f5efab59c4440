"""A seeded corpus of `@closure on` seed files through every command.

Each file holds one or two random golden seeds, (a + b*tau)/c with a and
b in -4..4 and c in {1, 2, 3, 5}, closed under I_h into orbits of up to
120 points; a few hand-picked files sit on an axis, on a mirror plane,
repeat a seed, or bond trivalently into a surface that is no sphere.
Every run must end in a documented exit code, 0 to 4, with no exception
escaping `cli.run`, and a failing run must say why on its first stderr
line.
"""

import random

import pytest

from icofold import cli

COMMANDS = [
    ["extend", "--axis", "5", "--length", "1"],
    ["extend", "--axis", "5", "--length", "1", "--emit", "off"],
    ["classify", "--axis", "3", "--scan", "a=0..2,b=0..1,c=1..2"],
    ["onion", "--axis", "5", "--length", "1", "--depth", "2"],
    ["export", "--emit", "off"],
    ["export", "--emit", "xyz", "--bond-scale"],
    ["configs"],
]

HAND_PICKED = {
    "axis": "0,1,tau",  # 12 points
    "mirror": "0,1,2",  # 60 points
    "twice": "1,2,3*tau\n1,2,3*tau",
    "no-sphere": "(1+tau)/3,(-3+3*tau)/5,(2+2*tau)/5",  # V - E + F = 0
}


def random_seeds(seed: int) -> str:
    rng = random.Random(seed)

    def coordinate():
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        return f"({a}{b:+d}*tau)/{rng.choice((1, 2, 3, 5))}"

    return "\n".join(",".join(coordinate() for _ in range(3))
                     for _ in range(rng.randint(1, 2)))


CORPUS = {**HAND_PICKED, **{f"seed{seed}": random_seeds(seed)
                            for seed in range(3600, 3620)}}


@pytest.mark.parametrize("seeds", CORPUS.values(), ids=CORPUS.keys())
def test_every_command_exits_with_a_documented_code(tmp_path, capsys, seeds):
    path = tmp_path / "seeds.txt"
    path.write_text(f"@closure on\n{seeds}\n", encoding="utf-8")
    for command in COMMANDS:
        argv = [command[0], "--config", str(path), *command[1:]]
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert code in range(5), argv
        if code:
            assert err.startswith(("error:", "parse error:")), (argv, err)
