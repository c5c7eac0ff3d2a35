"""Seeded in-process fuzz of the ql command line.

Each draw builds an argv from a small grammar: one command with a random
subset of its own flags, each flag given an ordinary, negative, zero,
huge or malformed value in the ``--flag value`` or ``--flag=value``
spelling, windows up to 400 twists wide (resolve windows reaching down
to the cap in a separate stream), and scenario files with bad lines.
Whatever is drawn, ``cli.main`` must return a documented exit code
without raising or printing a traceback, and the usage (1) and
infeasibility (2) exits must leave stdout empty.
"""

import random

import pytest

from quadliaison.cli import MAX_TWIST, MAX_WINDOW_TWISTS, main

SEED = 4
DRAWS = 300
DEEP_SEED = 5
DEEP_DRAWS = 24

# Each pool is (ordinary values, edge values): zero, negative and
# malformed ones.  A flag takes an edge value one time in ten, so many
# draws get past argument checking and reach a computation.
INTS = (("1", "2", "3", "4", "5", "6", "8", "9", "12", "2000000", "1000000000"),
        ("0", "-1", "-7", "x", "", "1.5", "0x10", "--"))
AMBIENTS = (("p2", "p3", "p4", "P3", "Q", "q", "quadric3", "P4"),
            ("p1", "p0", "p", "x", ""))
CIS = (("2,2,3", "2,3", "2,2", "1,1", "5,5,5", "2,2,2", "1000000,3",
        "1000000000000,2,2"),
       ("0,2,3", "-2,3", "2", "2,x", ",", ""))
VIAS = (("2,3", "-1,5", "1,1", "3,3", "1000000,3"), ("0,0", "2", "2,3,4", "x,y", ""))
FORMATS = (("text", "csv", "json"), ("xml", ""))
ROWS = (("full", "ideal", "section", "ambient"), ("bogus",))

# each command's own flags; resolve mostly gets the quadric it requires
GRAMMAR = {
    "table": {"--ambient": AMBIENTS, "-d": INTS, "-g": INTS, "--rows": ROWS},
    "link": {"--degree": INTS, "-g": INTS, "--ci": CIS},
    "resolve": {"--ambient": (("q", "quadric3"), ("p4", "x")), "-d": INTS,
                "--genus": INTS, "--via": VIAS},
    "verify": {},
    "bogus": {},
}
# the commands that read a twist window; only they get --window
WINDOWED = ("table", "resolve")

SCENARIOS = {
    "good": "ambient=q\ndegree=8\ngenus=4\n# comment\n\nflavor=etype\n",
    "ntype": "flavor=ntype\nambient=q\ndegree=8\ngenus=4\nvia=2,3\n",
    "window": "window=0:40\n",
    "no_equals": "ambient=q\nthis line has no equals sign\n",
    "bad_format": "format=xml\n",
    "bad_window": "window=3:1\n",
    "bad_int": "degree=abc\ngenus=4\n",
    "bad_rows": "rows=bogus\n",
    "bad_via": "flavor=ntype\nvia=2\n",
    "bad_ci": "ci=2,x\ndegree=8\ngenus=4\n",
}


def _pick(rng: random.Random, pool: tuple[tuple[str, ...], tuple[str, ...]]) -> str:
    ordinary, edge = pool
    return rng.choice(edge if rng.random() < 0.1 else ordinary)


def _window(rng: random.Random, floor: int) -> str:
    if rng.random() < 0.8:
        lo = rng.randint(max(floor, -400), 10)
    else:
        lo = rng.randint(max(floor, -MAX_TWIST), MAX_TWIST - 399)
    hi = lo + (rng.randint(0, 399) if rng.random() < 0.3 else rng.randint(0, 11))
    return _pick(rng, ((f"{lo}:{hi}",), (f"{hi + 1}:{lo}", "5", "a:b", "1:2:3", "")))


def draw(rng: random.Random, scenarios: list[str]) -> list[str]:
    command = rng.choices(tuple(GRAMMAR), weights=(20, 12, 16, 1, 1))[0]
    # Resolve windows start no lower than -10 here so that this draw stream
    # stays as it was; test_fuzzed_resolve_windows_down_to_the_cap below
    # draws resolve windows as deep as the cap allows.
    floor = -10 if command == "resolve" else -10**12
    pools = {"--format": FORMATS, **GRAMMAR[command]}
    argv = [command]
    window = [("--window", 0.3)] if command in WINDOWED else []
    flags = [("--format", 0.3), *window, ("--scenario", 0.15)]
    for name, chance in flags + [(f, 0.97) for f in GRAMMAR[command]]:
        if rng.random() >= chance:
            continue
        if name == "--window":
            value = _window(rng, floor)
        elif name == "--scenario":
            value = rng.choice(scenarios)
        else:
            value = _pick(rng, pools[name])
        argv += [name, value] if rng.random() < 0.3 else [f"{name}={value}"]
    if command == "resolve":
        flavors = ([], ["--etype", "--ntype"]) + (["--etype"], ["--ntype"]) * 4
        argv += rng.choice(flavors)
    if rng.random() < 0.03:
        argv.insert(rng.randint(0, len(argv)), rng.choice(("--bogus", "extra", "-")))
    return argv


@pytest.fixture
def scenario_paths(tmp_path):
    paths = []
    for name, text in SCENARIOS.items():
        path = tmp_path / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    undecodable = tmp_path / "latin1.scn"
    undecodable.write_bytes(b"degree=\xff\n")
    return paths + [str(undecodable), str(tmp_path / "missing.scn"), str(tmp_path)]


def test_fuzzed_argv_ends_in_a_documented_exit(scenario_paths, capsys, monkeypatch):
    rng = random.Random(SEED)
    answered = 0
    for _ in range(DRAWS):
        argv = draw(rng, scenario_paths)
        if rng.random() < 0.1:
            monkeypatch.setenv("QL_WINDOW", rng.choice(("0:6", "-1:4", "9:2", "x")))
        else:
            monkeypatch.delenv("QL_WINDOW", raising=False)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if rc in (1, 2):
            assert out == "", argv
        answered += rc != 1
    # enough draws get past argument checking to exercise the computations
    assert answered * 3 >= DRAWS, answered


def test_fuzzed_windows_past_the_cap_exit_1(tmp_path, capsys, monkeypatch):
    """A window wider than MAX_WINDOW_TWISTS, from the flag, a scenario or
    QL_WINDOW, ends a table or resolve call in exit 1 before any work."""
    rng = random.Random(SEED)
    capped = 0
    for k in range(60):
        command = rng.choice(("table", "resolve"))
        argv = [command]
        for name, pool in GRAMMAR[command].items():
            if rng.random() < 0.9:
                argv.append(f"{name}={_pick(rng, pool)}")
        if command == "resolve":
            argv.append(rng.choice(("--etype", "--ntype")))
        lo = rng.randint(-10**12, 10**12)
        span = rng.choice((MAX_WINDOW_TWISTS, rng.randint(MAX_WINDOW_TWISTS, 10**12)))
        window = f"{lo}:{lo + span}"
        source = rng.choice(("flag", "scenario", "env"))
        monkeypatch.delenv("QL_WINDOW", raising=False)
        if source == "flag":
            argv.append(f"--window={window}")
        elif source == "scenario":
            path = tmp_path / f"wide{k}.scn"
            path.write_text(f"window={window}\n", encoding="utf-8")
            argv += ["--scenario", str(path)]
        else:
            monkeypatch.setenv("QL_WINDOW", window)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, ""), argv
        assert err.startswith(("error:", "usage:")) and "Traceback" not in err, argv
        capped += "are allowed" in err
    # most draws reach the window check rather than failing on another flag
    assert capped * 2 >= 60, capped


def test_fuzzed_resolve_windows_down_to_the_cap(capsys):
    """Resolve windows up to MAX_WINDOW_TWISTS wide, most of them reaching
    thousands of twists below where any candidate kernel has sections.
    Kernel matching skips those twists, so a draw costs about what the
    window's own tables and audit cost."""
    rng = random.Random(DEEP_SEED)
    answered = 0
    for _ in range(DEEP_DRAWS):
        argv = ["resolve", "--ambient=q", f"-d={rng.randint(1, 12)}", f"-g={rng.randint(0, 8)}"]
        if rng.random() < 0.5:
            argv.append("--etype")
        else:
            argv += ["--ntype", f"--via={rng.choice(('2,3', '2,2', '2,4', '3,3', '1,2'))}"]
        hi = rng.randint(-12, 12)
        lo = hi + 1 - rng.choice((MAX_WINDOW_TWISTS, rng.randint(5, MAX_WINDOW_TWISTS)))
        argv.append(f"--window={lo}:{hi}")
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if rc in (1, 2):
            assert out == "", argv
        answered += rc in (0, 3)
    # most draws get past the feasibility checks to kernel matching
    assert answered * 2 >= DEEP_DRAWS, answered
