"""The pinned ccbound outputs, in one table.

A case is a command line, the input documents it reads and the sha256 of
its stdout and of its ``--out`` file.  tests/test_cli.py runs every case in
process.  Run as a script,

    python3 tests/pins.py

runs every case through the ``ccbound`` on PATH in a temporary directory,
prints one line per case and exits 1 naming each case whose output differs.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from typing import NamedTuple

import numpy as np

from ccbound.attack import cc_chsh, tripartite
from ccbound.correlations import (
    MeasurementArrangement, chsh_protocol_correlation, slice_correlation, werner_correlation,
)
from ccbound.infotheory import JointDistribution


class Case(NamedTuple):
    argv: tuple  # after ``ccbound``; its file names are relative to the working directory
    inputs: tuple  # the names in INPUTS that argv reads
    sha256: tuple  # of stdout, then of the file after --out when argv has one


def werner_pair(seed, n):
    """A noisy singlet at v = 0.9 on n seeded random settings a side, and its v = 1 target."""
    rng = np.random.default_rng(seed)
    vectors = [[x / math.hypot(*v) for x in v] for v in rng.normal(size=(2 * n, 3)).tolist()]
    arrangement = MeasurementArrangement(tuple(vectors[:n]), tuple(vectors[n:]))
    return werner_correlation(0.9, arrangement), werner_correlation(1.0, arrangement)


def _attack(theta, v):
    return tripartite(cc_chsh(theta, v), 0, 2)


def _criterion7(name):
    pab = np.array([[0.4, 0.1], [0.2, 0.3]])
    if name == "independent":
        return JointDistribution(np.einsum("ab,e->abe", pab, np.full(4, 0.25)))
    copy = np.zeros((2, 2, 4))
    copy[0, 0, 0], copy[0, 1, 1], copy[1, 0, 2], copy[1, 1, 3] = pab.ravel()
    return JointDistribution(copy)


def _slice_pair():
    """A slice point 5e-10 outside the facet along polar angle 0.5, local
    within the LP slack, and its edge target."""
    radius = (1 + 5e-10) / (math.cos(0.5) + math.sin(0.5))
    return (slice_correlation(radius * math.cos(0.5), radius * math.sin(0.5)),
            slice_correlation(math.cos(0.5), math.sin(0.5)))


def _quadrant3_pair():
    """The third-quadrant slice point (-0.6, -0.55) and its edge target
    r3 = hypot(0.6, 0.55): q_max = (1 - r3)/(1 - r3/1.15) and 2 - 1.15."""
    r3 = math.hypot(-0.6, -0.55)
    return slice_correlation(-0.6, -0.55), slice_correlation(-0.6 / r3, -0.55 / r3)


def _item(build, i):
    return build()[i]


BOUND_INPUTS = {
    "pi4_073": (math.pi / 4, 0.73),
    "pi6_08": (math.pi / 6, 0.8),
    "pi4_09": (math.pi / 4, 0.9),
    "pi4_1": (math.pi / 4, 1.0),
}
INTRINSIC_INPUTS = {
    "attack_below": (math.pi / 4, 0.73),  # below v_crit(pi/4) = 0.7445
    "attack_above": (math.pi / 4, 0.85),
    "attack_pi6": (math.pi / 6, 0.8),
    "crit7_attack": (math.pi / 4, 0.72),
}
LOCALWEIGHT_INPUTS = {
    # 5522's LPs have m + n = 1,124 and 1,125, whose default pivot budget
    # exceeds 20,000; 4422's have 320 and 321
    "werner": partial(werner_pair, 5522, 5),
    "werner4422": partial(werner_pair, 4422, 4),
    "slice": _slice_pair,
    "quadrant3": _quadrant3_pair,
}

# file name -> a builder of the document written there
INPUTS = {
    **{f"{name}.json": partial(chsh_protocol_correlation, *point) for name, point in BOUND_INPUTS.items()},
    **{f"{name}.json": partial(_attack, *point) for name, point in INTRINSIC_INPUTS.items()},
    "crit7_independent.json": partial(_criterion7, "independent"),
    "crit7_copy.json": partial(_criterion7, "copy"),
    **{f"{name}{suffix}.json": partial(_item, build, i)
       for name, build in LOCALWEIGHT_INPUTS.items() for i, suffix in enumerate(("", "_target"))},
}

PINS = {}

# `constants` and `bound` stdout, as printed while Correlation,
# JointDistribution and StochasticMap still hand-rolled their immutability
CONSTANTS_OPTIONS = {"text": (), "json": ("--json",), "theta": ("--theta", "0.3")}
for key, digest in {
    "text": "426eba0c5f528c749ad4267ed1d0c5ca590736140c782b4a1bf827869ebb6ff0",
    "json": "13dd4b04685f7ff13e93064895eb18fb40d40b2599268ef432c6dd505511a67f",
    "theta": "1fec63181ee002e28504bf7289c1c54f801f97342a334db82d1c4dfcc9f1fe3b",
}.items():
    PINS[f"constants {key}"] = Case(("constants", *CONSTANTS_OPTIONS[key]), (), (digest,))

# every setting pair of the protocol: (1, 2) has agreement 1/2 and (1, 1) is
# the anticorrelated pair, whose map and fraction are mirrored
ALL_PAIRS = tuple(arg for pair in ("0,0", "0,1", "0,2", "1,0", "1,1", "1,2") for arg in ("--setting", pair))
BOUND_OPTIONS = {
    "text": (),
    "json": ("--json",),
    "settings": ("--setting", "0,2", "--setting", "1,1"),
    "lambda": ("--lambda", "0.5"),
}
for fraction in ("auto", "0.3"):
    BOUND_OPTIONS[f"pairs_{fraction}"] = (*ALL_PAIRS, "--lambda", fraction)
    BOUND_OPTIONS[f"pairs_{fraction}_json"] = (*ALL_PAIRS, "--lambda", fraction, "--json")
for (name, options), digest in {
    ("pi4_073", "text"): "7089e179592fe46f0d24a077fe98a0ae37ad72c5c0a2f3bb1bf8ea2e02108f9f",
    ("pi4_073", "json"): "85d92223d5de71da391594cc9c8c510ae363ab93bdfeca2e46144d7638e14a73",
    ("pi4_073", "settings"): "c4eb4621b4ae2d766df112a14416056727298fc13f16126ce77e46426c3f3642",
    ("pi4_073", "lambda"): "574f31b37d3738463a210e7135c795e12888fb9e4a5ba163eb031fc2d4ef968e",
    ("pi6_08", "text"): "da6639da3501b9838ed44189057661907e245e22d0907852bd3ba7ad8d294115",
    ("pi6_08", "json"): "1cf8ef52f67b0797f57e3f4ae8f72f4081cca12dce930f62876e1d81692bd022",
    ("pi6_08", "settings"): "b4cfb2b3db780b113095714c753275e4c6879cebd0a62dcf624877a357e2c641",
    ("pi6_08", "lambda"): "68c0073972df419f1abed22121cfb4c30f4a2338d71ef27fd79dff55dfb14f59",
    ("pi4_09", "text"): "2572ddef16004233afad9c449aef1b3fe6657fb935acc31f7ca74e5be955964e",
    ("pi4_09", "json"): "497ace3f7a220fc94a8183dd68e42461a85ffc249b8349e57e53a339c692dfd3",
    ("pi4_09", "settings"): "e46a773939849d0ecec746cf1d9a0a289172bc528d0482ab009e02d4693cf233",
    ("pi4_09", "lambda"): "84ff7fd4bd914573661777b1f7b49bcdd99a57f2019a153844cc00a0b59db644",
    # taken while the attack still read each pair's agreement from the Bloch vectors
    ("pi6_08", "pairs_auto"): "3aa165c846f49fcdc7f5b4000fcf0f2593c0c4e538bc25ae6604041664797f0b",
    ("pi6_08", "pairs_auto_json"): "6a926e47349c1e14cd1cf496632544871e084a7397007cc3abdb0381651056a8",
    ("pi6_08", "pairs_0.3"): "e2857e842f28d3a2e7404d501a6f2f25ca218926e5cf056f389e5fb2e44f4e9d",
    ("pi6_08", "pairs_0.3_json"): "c5eeb123d84b6f9b64600c34fc40ea31fd3afd11fa7b215ccfb1c70dcf50ea2a",
    # taken while 'auto' still reached 1 by catching the threshold check's error;
    # at v = 1 every pair has local weight 0
    ("pi4_1", "pairs_auto"): "048628d7c0f30dbd4aea46728f73f61481352bdf34d53ab92a5a7343fe6ae8e5",
    ("pi4_1", "pairs_auto_json"): "f57d0c255e5c40467c1b78c10bf8c6353f5c5ba3ad8bd1fcb029e8085d4bd8d1",
}.items():
    argv = ("bound", f"{name}.json", "--theta", repr(BOUND_INPUTS[name][0]), *BOUND_OPTIONS[options])
    PINS[f"bound {name}-{options}"] = Case(argv, (f"{name}.json",), (digest,))

# `intrinsic` stdout, text and then --json, on four attack inputs and the
# criterion-7 inputs, as the minimizer wrote them before it stopped at a
# zero bound and before its kernel passes were trimmed: the minimizer's
# bound, map and Nelder-Mead path stay bit for bit.  An entry holds the
# restart counts that print the same bytes
for (name, restarts), digests in {
    ("attack_below", (0,)): ("90afbb208cf9b067690da3448a2726c40175d56fd2f1cd8d446dc39a7a47cfae",
                             "d2401b67de41fb5fb1e818d31fff36f1be062b1208feae52525301087735cf16"),
    ("attack_below", (4,)): ("ffa53d24e06e8083f78200e968e03126673133693ae47783feb3e98af4ca1694",
                             "ca02f3f5b9fd8e92ea2eef980cc5298aa3efa37bac6da5a3a3260ae43077c04d"),
    ("attack_below", (32,)): ("b4d06b5a3a4487288569f023b476db863d2434f37c7e8ac755b5569bc2407fe3",
                              "a631ccdb7d712f5a62956ca40ec1c7f83168f785e940a51a3e7952bc842a3205"),
    ("attack_above", (0, 4, 32)): ("0d05d6af6e0fad4e15771245c0c410c49005981086b818295b5a5bd7d695b13c",
                                   "6f3dabfc8a2f7f3f5476b5cde5f7086ed12bcb690e10c26e3080f927b88b1d55"),
    ("attack_pi6", (0, 4, 32)): ("b90bf4804ff5c2e8e101ab9e65c8e7913fe7b1ac79507c609084b43e5f2e61d2",
                                 "326481e28e4cd79dcf3754dd13569807b98749063621d86a43a1ff03ca1a8e5e"),
    ("crit7_attack", (0,)): ("561e856ecfdd04340362d65360549826cc61eab8543e26a221b168086a39fb59",
                             "d890da5f7fee5ec9e6830f0d3d59c514add917c5b07534f9ba7b0bf3ad49f2a9"),
    ("crit7_attack", (4,)): ("66938aa68beed4a285a3083083a7ef672168b5c5c966d57adad96ca6ce994217",
                             "3958d10de107fb917a113bf273e198014110bcfa26ae2595586f3b4bafb3fb4f"),
    ("crit7_attack", (32,)): ("42fe5c1a89f3aa4c0cb5f43e7ebca1b7dd6dbd139d4882e0e32069d2b2cf16a8",
                              "2bf7511841ccbadaa2c8902d25776a50403cc0ffa83532c1063c0bfa4f8f5f1b"),
    ("crit7_independent", (0, 4, 32)): ("3d8091d4e9595e4bce14b58fb00b0ca20a6fbe1937e6bd2a71b01adf06f0ede0",
                                        "f37c1ed62bd483f6dc9f39bdee8c59b946f6ef3311a0f5eb5b2a1a7da76e2678"),
    ("crit7_copy", (0, 4, 32)): ("d05718baab055d207e65244f1ef2c286664c90332d4133cf986558fd51aaf4e7",
                                 "8a59c02b597fcf1ba76259a43fc3aaa2d5b4dc4277079f5dcb0e41f4f4415237"),
}.items():
    for count in restarts:
        for extra, digest in zip(((), ("--json",)), digests):
            argv = ("intrinsic", f"{name}.json", "--restarts", str(count), *extra)
            PINS[f"intrinsic {name}-{count}{'-json' if extra else ''}"] = Case(argv, (f"{name}.json",), (digest,))

# `localweight` stdout and --out file under --target and --ns.  The Werner
# table and the local components are summed by numpy, not BLAS, so every
# digest is the same on every OpenBLAS kernel and thread count
for (name, mode), digests in {
    ("werner", "target"): ("0d4646aa31c2b3212a645c691a0641841e2259434fe75c038da4f579a18f9b12",
                           "0fe238e95d30f72f94142bc2a5245b116c3ca28d405bdc09f2417aaf50bfdb61"),
    ("werner", "ns"): ("ed1be48b2e1aa51fc0c2e02fcda5377e05969a785a110e978c4479b00c570cc5",
                       "956918132bda9a755d9bf9c163cafd0a7065e5fe29775a34666824580c996922"),
    ("werner4422", "target"): ("6f51b0e6b1a45f80d5a7d6a7ee7ca4c549f04854d6d4abc4ab805ef0745ab05b",
                               "e61f1ae1513b63ea9dd11024a45513a50ee0ac74cb290b7aaf6df4d7739f088e"),
    ("werner4422", "ns"): ("ab54b32dc8e47037fe8cc3404181622a1cc0561fd2030d626d6f3063852657e6",
                           "2ab94c4159c383042d51a5f73f48625efe94af34ad87b63827c688b1b343f3a5"),
    ("slice", "target"): ("a522b27f881066e45da915ffd57352b1fc6766095af6b76055eab7d4d02140a8",
                          "53313a30d0dbd94257a64cd96c10185dcdd0b497bc74db81e3e1d02676cfc211"),
    ("slice", "ns"): ("a522b27f881066e45da915ffd57352b1fc6766095af6b76055eab7d4d02140a8",
                      "938e05bbf5bedca2fb2964933df8f98bc91640be24d35330076592f5da4585d1"),
    ("quadrant3", "target"): ("f913fc9545fd5a15e0ee73eead8e3cfe7426856a955086a1909035314d18bc14",
                              "9762e6455a88bcd642b6ab9d7ed58b5893a6724fb0e496abd13a5f6e2114aa9a"),
    ("quadrant3", "ns"): ("325975754f12a60e96fc25bc3f8130e855691d714b89793beb00e01b8b1ab746",
                          "cff13a6d853c3a603fa9da5d93322b53864c5aeb9ffd6566f8e12ebd4ecdfb46"),
}.items():
    flag = f"--target={name}_target.json" if mode == "target" else "--ns"
    argv = ("localweight", f"{name}.json", flag, "--out", "local.json")
    inputs = (f"{name}.json", f"{name}_target.json") if mode == "target" else (f"{name}.json",)
    PINS[f"localweight {name}-{mode}"] = Case(argv, inputs, digests)

# the region CSV as written by the per-point classifier that preceded the
# array one; a region written to a file prints nothing
for resolution, digest in {
    201: "ff3fc7ae139ce398defaa53ba6b8b9d3c6b6fe4800fb1ba42d69f986ad4457ae",
    801: "48e26690819839ad6b4f8c0e6ab18f5acc2d2f70e2950c6997b1311e8e52a6e5",
}.items():
    argv = ("region", "--resolution", str(resolution), "--out", "region.csv")
    PINS[f"region {resolution}"] = Case(argv, (), (hashlib.sha256(b"").hexdigest(), digest))

# outputs long enough to show that the CSV commands stream: CI writes them
# through the installed script under a memory check.  The curve, as written
# when every row was formatted from the scalar chsh_keyrate_bound, is also
# checked in process
CURVE_1E6_SHA256 = "fdd8e0112f9321c3949a988685fd9f6d979796f7d1295416a19e21b8413b57a3"  # --step 1e-6 over [0, 1]
REGION_3162_SHA256 = "7e84d2317a7cc1a927e1270d954db9e74e249409da21a0a624b5081bbe486b0e"  # the row limit


def outputs(case, run, cwd):
    """Write the case's inputs into cwd and run its argv through run(argv) ->
    (exit code, stdout bytes) there: the exit code and the sha256 digests."""
    for name in case.inputs:
        with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
            json.dump(INPUTS[name]().to_json_dict(), fh)
    out = os.path.join(cwd, case.argv[case.argv.index("--out") + 1]) if "--out" in case.argv else None
    if out and os.path.exists(out):
        os.remove(out)
    code, stdout = run(case.argv)
    digests = [hashlib.sha256(stdout).hexdigest()]
    if out and os.path.exists(out):
        with open(out, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return code, tuple(digests)


def replay(cases, run, cwd):
    """Run every case, print one line each and return 1 if any differs, naming them, else 0."""
    differ = []
    for name, case in cases.items():
        code, digests = outputs(case, run, cwd)
        same = code == 0 and digests == case.sha256
        print(name, "same" if same else f"DIFFERS: exit {code}, sha256 {' '.join(digests)}", flush=True)
        if not same:
            differ.append(name)
    if differ:
        print(f"{len(differ)} of {len(cases)} cases differ: {', '.join(differ)}")
    return 1 if differ else 0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        def run(argv):
            proc = subprocess.run(["ccbound", *argv], cwd=tmp, capture_output=True)
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return proc.returncode, proc.stdout

        return replay(PINS, run, tmp)


if __name__ == "__main__":
    sys.exit(main())
