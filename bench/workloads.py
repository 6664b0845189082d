"""The benchmark's workloads: fixed CLI invocations, run one at a time.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation; the workload seed is appended as ``--seed``."""

    command: str
    signature: tuple[int, int] | None = None
    samples: int | None = None

    def argv(self, seed: int) -> list[str]:
        out = [self.command]
        if self.signature is not None:
            out += ["--signature", f"{self.signature[0]},{self.signature[1]}"]
        if self.samples is not None:
            out += ["--samples", str(self.samples)]
        return out + ["--seed", str(seed)]

    @property
    def key(self) -> str:
        """Names the reference report of this invocation."""
        if self.signature is None:
            return f"{self.command}_all"
        return f"{self.command}_{self.signature[0]}_{self.signature[1]}"


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # Signatures whose representation, structure and pairing the verifier
    # builds before its first item; set-up is the import alone when empty.
    setup_signatures: tuple[tuple[int, int], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fierz-dense",
            (
                Invocation("verify-fierz", (9, 0), 2),
                Invocation("verify-fierz", (0, 4), 10),
                Invocation("verify-fierz", (1, 2), 20),
            ),
            ((9, 0), (0, 4), (1, 2)),
        ),
        Workload(
            "census-sparse",
            (
                Invocation("census", (9, 0), 300),
                Invocation("census", (1, 2), 1000),
            ),
            ((9, 0), (1, 2)),
        ),
        Workload(
            "rep-sweep",
            (
                Invocation("build-rep", (5, 5)),
                Invocation("build-rep", (7, 1)),
                Invocation("build-rep", (0, 9)),
                Invocation("build-rep", (4, 6)),
                Invocation("check-algebra"),
            ),
            (),
        ),
    )
}
