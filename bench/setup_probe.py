"""Set-up probe: time from a fresh interpreter until the verifier can take its first item.

Usage: python3 bench/setup_probe.py [p,q ...]

Imports the CLI and, for each signature given, builds what a verifier
builds before its first sample: the representation, its structure maps and
the standard admissible pairing.  Then it prints the monotonic clock, which
is shared by every process on the host, so the parent subtracts its own
reading taken just before it started this process.
"""

import sys
import time


def main(signatures: list[str]) -> None:
    import grafclifford.cli  # noqa: F401  (the import a CLI user pays)
    from grafclifford.bilinear import standard_pairing
    from grafclifford.exterior import Signature
    from grafclifford.matrixrep import build_rep, build_structure

    for text in signatures:
        p, q = (int(part) for part in text.split(","))
        rep = build_rep(Signature(p, q))
        standard_pairing(rep, build_structure(rep))
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
