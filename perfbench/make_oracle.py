"""Regenerate ``oracle.json``, the expected output of every pool entry.

    python3 perfbench/make_oracle.py

Run it from the root of a checkout whose program is the reference.  The
table is keyed by pool entry, not by run seed:

- ``auslander``: sha256 of the ``homdims`` report for each (n, d);
- ``ctgent``: certificate verdict and sorted sg cycle lengths for each
  (n, d, positions), with the reduction run unseeded;
- ``rigid``: certificate verdict for each rigid pool entry.
"""

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    workdir = os.path.join(HERE, "out", f"oracle-{os.getpid()}")
    table = {"auslander": {}, "ctgent": {}, "rigid": {}}

    aus = workloads.Auslander(workdir)
    aus.setup()
    for n, d in workloads.AUSLANDER_POOL:
        out = aus.run(("auslander", n, d))
        if out["rc"] != [0, 0]:
            raise SystemExit(f"auslander {n},{d} exited {out['rc']}")
        table["auslander"][workloads.auslander_key(n, d)] = \
            hashlib.sha256(out["homdims"]).hexdigest()
    shutil.rmtree(workdir)

    ctg = workloads.Ctgent(workdir)
    ctg.setup()
    for n, d, idx in workloads.CTGENT_POOL:
        out = ctg.run(("ctgent", n, d, idx, None))
        table["ctgent"][workloads.ctgent_key(n, d, idx)] = {
            "verdict": out["verdict"], "sg": out["sg"]}

    rig = workloads.Rigid(workdir)
    rig.setup()
    for n in workloads.RIGID_NS:
        rigid, _ = rig.pool[n]
        for sub in rigid:
            out = rig.run(("rigid", n, sub))
            if not out["rigid"]:
                raise SystemExit(f"pool entry {sub} is not rigid for hga")
            table["rigid"][workloads.rigid_key(n, sub)] = out["verdict"]

    with open(workloads.ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    verdicts = list(table["rigid"].values())
    print(f"wrote {workloads.ORACLE_PATH}: {len(table['auslander'])} auslander, "
          f"{len(table['ctgent'])} ctgent, {len(verdicts)} rigid entries "
          f"({verdicts.count('pass')} pass, {verdicts.count('fail')} fail)")


if __name__ == "__main__":
    main()
