"""Command-line front end for the exact exterior-form Clifford engine.

Six subcommands drive the library end to end: ``check-algebra`` replays
the product-level property suite over one or all supported signatures,
``build-rep`` constructs and verifies a matrix representation together
with its admissible pairings, ``verify-fierz`` checks the geometric
Fierz identities, one per commutant unit, on seeded random spinors of
any buildable signature, ``classify`` reports the class of a single
spinor (or of a hand-injected covariant set), ``census`` buckets
seeded random spinors by covariant zero pattern, and ``appendix-check``
replays the twelve closed-form product expansions.

Each subcommand is one row of the table in ``build_parser``: name, help,
flag defaults, handler, whether ``--signature`` is required, positional.
Handlers read the parsed namespace; ``main`` dispatches through it.

Every report embeds the tool version, signature, metric, volume sign,
pairing hash and seed; identical configurations produce byte-identical
output.  Exit status 0 means no oracle-level check failed (flagged
reduced-row mismatches are reports, not failures), 1 means an oracle or
structural check failed, and 2 means the invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bilinear import Pairing, admissible_pairings, b_eval, preferred_pairing
from .errors import (
    DimensionMismatch,
    FormParseError,
    NotASpinor,
    StructureError,
    UnsupportedSignature,
)
from .exterior import (
    Form,
    Metric,
    Signature,
    max_dim,
    rational_from_json,
    rational_to_str,
)
from .fierz import check_fierz, covariant, fundamental_identity_holds, reconstruct_check
from .graf import (
    graf_product,
    hodge,
    in_truncation_regime,
    lower_projection,
    projector_pm,
    truncated_product,
    volume_form,
    volume_square_sign,
)
from .matrixrep import Rep, build_rep
from .classify import (
    APPENDIX_SIGNATURE,
    GEOMETRIES,
    appendix_check,
    census,
    class_report,
    covariants,
    geometry_of,
    prepare,
    reduced_verdict,
)

TOOL_NAME = "grafclifford"


def _parse_signature(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"signature must look like 'p,q', got {text!r}")
    try:
        p, q = (int(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"signature parts must be integers: {text!r}") from exc
    if p < 0 or q < 0:
        raise argparse.ArgumentTypeError("signature parts must be non-negative")
    try:
        return Signature(p, q)
    except UnsupportedSignature as exc:
        raise argparse.ArgumentTypeError(f"invalid signature {text!r}: {exc}") from exc


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _provenance(
    signature: Signature | None,
    volume_sign: int | None,
    pairing_hash: str | None,
    seed: int | None,
) -> dict:
    """The report header; a report with a volume sign is over its signature's standard frame."""
    from . import __version__

    framed = signature is not None and volume_sign is not None
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "signature": None if signature is None else [signature.p, signature.q],
        "metric": Metric.standard(signature).to_json_obj() if framed else None,
        "volume_sign": volume_sign,
        "pairing_hash": pairing_hash,
        "seed": seed,
    }


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(value, sort_keys=True)}")
    else:
        lines.append(f"{pad}{json.dumps(obj, sort_keys=True)}")
    return lines


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.fmt == "json":
        payload = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        payload = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


# -- check-algebra -----------------------------------------------------------------------


# check-algebra forms: FORM_TERMS blades, coefficients from [-FORM_BOX, FORM_BOX]
FORM_BOX = 4
FORM_TERMS = 5


def _random_form(rng: random.Random, sig: Signature) -> Form:
    size = 1 << sig.n
    chosen = rng.sample(range(size), min(FORM_TERMS, size))
    return Form.from_mask_dict(sig, {m: rng.randint(-FORM_BOX, FORM_BOX) for m in chosen})


def _first_failure(report: dict, prop: str, sig: Signature, detail: dict) -> None:
    failures = report.setdefault("failures", {})
    failures.setdefault(prop, {"signature": [sig.p, sig.q], **detail})


def _check_signature_properties(sig: Signature, trials: int, seed: int, report: dict) -> bool:
    rng = random.Random(f"{seed}:{sig.p},{sig.q}")
    ok = True

    for i in range(1, sig.n + 1):
        for j in range(1, sig.n + 1):
            ei = Form.blade(sig, (i,))
            ej = Form.blade(sig, (j,))
            anti = graf_product(ei, ej) + graf_product(ej, ei)
            expected = Form.unit(sig).scale(2 * Metric.standard(sig).entry(i, j))
            if anti != expected:
                ok = False
                _first_failure(report, "clifford-relation", sig, {"i": i, "j": j})

    vol = volume_form(sig)
    square = graf_product(vol, vol)
    sign = volume_square_sign(sig.p, sig.q)
    if square != Form.unit(sig).scale(sign):
        ok = False
        _first_failure(report, "volume-square", sig, {"expected": sign})

    for t in range(trials):
        f, g, h = (_random_form(rng, sig) for _ in range(3))
        left = graf_product(graf_product(f, g), h)
        right = graf_product(f, graf_product(g, h))
        if left != right:
            ok = False
            _first_failure(
                report,
                "associativity",
                sig,
                {"trial": t, "f": f.to_text(), "g": g.to_text(), "h": h.to_text()},
            )
        if sig.n % 2 == 1 and graf_product(vol, f) != graf_product(f, vol):
            ok = False
            _first_failure(report, "volume-centrality", sig, {"trial": t, "f": f.to_text()})
        if hodge(f) != graf_product(f, vol):
            ok = False
            _first_failure(report, "hodge-definition", sig, {"trial": t, "f": f.to_text()})
        if hodge(hodge(f)) != f.scale(sign):
            ok = False
            _first_failure(report, "hodge-square", sig, {"trial": t, "f": f.to_text()})

    if in_truncation_regime(sig):
        for t in range(trials):
            f, g = (_random_form(rng, sig) for _ in range(2))
            for s in (1, -1):
                pf = projector_pm(f, s)
                if projector_pm(pf, s) != pf:
                    ok = False
                    _first_failure(report, "projector-idempotency", sig, {"trial": t, "sign": s})
                rebuilt = projector_pm(lower_projection(pf).scale(2), s)
                if rebuilt != pf:
                    ok = False
                    _first_failure(report, "truncation-reconstruction", sig, {"trial": t, "sign": s})
            tp = truncated_product(f, g)
            if projector_pm(tp, 1) != graf_product(projector_pm(f, 1), projector_pm(g, 1)):
                ok = False
                _first_failure(report, "truncated-intertwining", sig, {"trial": t})
    return ok


def cmd_check_algebra(args: argparse.Namespace) -> tuple[int, dict]:
    if args.signature is not None:
        sigs = [args.signature]
        trials = 25 if args.trials is None else args.trials
    else:
        bound = min(9, max_dim())
        sigs = [Signature(p, n - p) for n in range(bound + 1) for p in range(n, -1, -1)]
        trials = 5 if args.trials is None else args.trials
    report: dict = {
        "provenance": _provenance(args.signature, None, None, args.seed),
        "trials_per_signature": trials,
        "signatures_checked": len(sigs),
        "volume_square_table": [],
    }
    all_ok = True
    for sig in sigs:
        all_ok &= _check_signature_properties(sig, trials, args.seed, report)
        report["volume_square_table"].append([sig.p, sig.q, volume_square_sign(sig.p, sig.q)])
    report["passed"] = all_ok
    return (0 if all_ok else 1), report


# -- build-rep ---------------------------------------------------------------------------


def _build_all(sig: Signature, volume_sign: int):
    """Representation, admissible pairings and the preferred one."""
    rep = build_rep(sig, volume_sign)
    pairings = admissible_pairings(rep)
    return rep, pairings, preferred_pairing(pairings)


def _structure_obj(rep: Rep) -> dict:
    structure = rep.structure
    return {
        "case": rep.abs.case,
        "has_complex_structure": structure.J is not None,
        "has_real_structure": structure.D is not None,
        "has_quaternion_triple": structure.H is not None,
        "d_square_sign": structure.d_square_sign,
    }


def _pairing_obj(pairing: Pairing) -> dict:
    return {"hash": pairing.content_hash(), **pairing.to_json_obj()}


def cmd_build_rep(args: argparse.Namespace) -> tuple[int, dict]:
    sig = args.signature
    rep, pairings, preferred = _build_all(sig, args.volume_sign)
    return 0, {
        "provenance": _provenance(sig, rep.volume_sign, preferred.content_hash(), args.seed),
        "representation": rep.to_json_obj(),
        "structure": _structure_obj(rep),
        "pairings": [_pairing_obj(p) for p in pairings],
        "passed": True,
    }


# -- verify-fierz ------------------------------------------------------------------------


# verify-fierz spinor entries are drawn from [-VECTOR_BOX, VECTOR_BOX]
VECTOR_BOX = 5


def _random_vec(rng: random.Random, dim: int) -> tuple:
    return tuple(rng.randint(-VECTOR_BOX, VECTOR_BOX) for _ in range(dim))


def cmd_verify_fierz(args: argparse.Namespace) -> tuple[int, dict]:
    sig = args.signature
    rep, _, pairing = _build_all(sig, args.volume_sign)
    rng = random.Random(args.seed)
    samples = args.samples
    dim = rep.d

    fundamental_fails = reconstruction_fails = fierz_fails = 0
    first_fierz_failure = None
    for _ in range(samples):
        a1, b1, a2, b2 = (_random_vec(rng, dim) for _ in range(4))
        if not fundamental_identity_holds(pairing, a1, b1, a2, b2):
            fundamental_fails += 1
        cov11 = covariant(rep, pairing, a1, b1)
        cov22 = covariant(rep, pairing, a2, b2)
        for cov, alpha, beta in ((cov11, a1, b1), (cov22, a2, b2)):
            if not reconstruct_check(rep, pairing, cov, alpha, beta):
                reconstruction_fails += 1
        cov12 = covariant(rep, pairing, a1, b2)
        verdict = check_fierz(rep, pairing, cov11, cov22, cov12, b_eval(pairing, a2, b1))
        if not verdict["passed"]:
            fierz_fails += 1
            if first_fierz_failure is None:
                first_fierz_failure = verdict

    report: dict = {
        "provenance": _provenance(sig, rep.volume_sign, pairing.content_hash(), args.seed),
        "case": rep.abs.case,
        "samples": samples,
        "oracles": {
            "fundamental_identity_failures": fundamental_fails,
            "reconstruction_failures": reconstruction_fails,
            "fierz_failures": fierz_fails,
        },
    }
    if first_fierz_failure is not None:
        report["first_fierz_failure"] = first_fierz_failure

    master_fails = 0
    flagged_rows: dict[str, int] = {}
    flagged_example = None
    if (sig.p, sig.q) in GEOMETRIES:
        rng2 = random.Random(args.seed + 1)
        for _ in range(samples):
            alpha = prepare(rep, _random_vec(rng2, dim))
            covs = covariants(rep, pairing, alpha)
            verdict = reduced_verdict(covs, b_eval(pairing, alpha, alpha), rep.volume_sign)
            if not verdict["master"]["passed"]:
                master_fails += 1
            for name in verdict["flagged"]:
                flagged_rows[name] = flagged_rows.get(name, 0) + 1
                if flagged_example is None:
                    flagged_example = next(r for r in verdict["rows"] if r["identity"] == name)
        report["reduced"] = {
            "master_failures": master_fails,
            "flagged_row_counts": flagged_rows,
        }
        if flagged_example is not None:
            report["reduced"]["first_flagged_row"] = flagged_example

    oracle_ok = (
        fundamental_fails == 0
        and reconstruction_fails == 0
        and fierz_fails == 0
        and master_fails == 0
    )
    report["passed"] = oracle_ok
    return (0 if oracle_ok else 1), report


# -- classify ----------------------------------------------------------------------------


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormParseError(f"cannot read spinor file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8, digit limit, depth
        raise FormParseError(f"spinor file {path!r} is not valid JSON: {exc}") from exc


def _classify_injected(sig: Signature, payload: dict, args: argparse.Namespace) -> tuple[int, dict]:
    geo = geometry_of(sig)
    extra = sorted(set(payload) - {"covariants", "scalar"})
    if extra:
        raise FormParseError(
            f"unknown key {', '.join(map(repr, extra))}: injected covariants take covariants, scalar"
        )
    fields = payload["covariants"]
    if not isinstance(fields, dict):
        raise FormParseError("covariants must be an object of named forms")
    names = [name for name, _ in geo.components]
    unknown = sorted(set(fields) - set(names))
    if unknown:
        p, q = geo.signature
        raise FormParseError(
            f"unknown covariant {', '.join(map(repr, unknown))}: signature ({p},{q}) "
            f"takes {', '.join(names)}"
        )

    def load_form(name: str, grade: int) -> Form:
        if name not in fields:
            return Form.zero(sig)
        form = Form.from_json_obj(sig, fields[name])
        if any(k != grade for k in form.grades()):
            raise FormParseError(f"covariant {name!r} must be homogeneous of grade {grade}")
        return form

    covs = tuple(load_form(name, grade) for name, grade in geo.components)
    scalar = payload.get("scalar")
    scalar = covs[0].scalar_part() if scalar is None else rational_from_json(scalar, "scalar")
    result = class_report(covs, scalar, args.volume_sign)
    report = {
        "provenance": _provenance(sig, args.volume_sign, None, args.seed),
        "mode": "covariant-injection",
        "scalar": rational_to_str(scalar),
        "class_index": result["class_index"],
        "class_pattern": result["class_pattern"],
        "covariants": result["covariants"],
        "verdict": result["verdict"],
        "passed": True,
    }
    return 0, report


def cmd_classify(args: argparse.Namespace) -> tuple[int, dict]:
    sig = args.signature
    payload = _load_json_file(args.spinor_file)
    if isinstance(payload, dict) and "covariants" in payload:
        return _classify_injected(sig, payload, args)
    if not isinstance(payload, list):
        raise FormParseError(
            "spinor file must be a JSON array of rationals or an object with 'covariants'"
        )
    vec = tuple(rational_from_json(item, "spinor entry") for item in payload)
    geometry_of(sig)  # refuses an unclassified signature before the build
    rep, _, pairing = _build_all(sig, args.volume_sign)
    if len(vec) != rep.d:
        raise DimensionMismatch(
            f"spinor has {len(vec)} entries; the representation needs {rep.d}"
        )
    covs = covariants(rep, pairing, prepare(rep, vec))
    report = {
        "provenance": _provenance(sig, rep.volume_sign, pairing.content_hash(), args.seed),
        "mode": "spinor",
        "report": class_report(covs, None, rep.volume_sign, pairing.content_hash()),
        "passed": True,
    }
    return 0, report


# -- census ------------------------------------------------------------------------------


def cmd_census(args: argparse.Namespace) -> tuple[int, dict]:
    sig = args.signature
    geometry_of(sig)  # refuses an unclassified signature before the build
    rep, pairings, pairing = _build_all(sig, args.volume_sign)
    return 0, {
        "provenance": _provenance(sig, rep.volume_sign, pairing.content_hash(), args.seed),
        "census": census(rep, pairings, args.samples, args.seed),
        "passed": True,
    }


# -- appendix-check ----------------------------------------------------------------------


def cmd_appendix_check(args: argparse.Namespace) -> tuple[int, dict]:
    if args.volume_sign != 1:
        raise UnsupportedSignature("the identity battery is stated under volume sign +")
    sig = args.signature if args.signature is not None else Signature(*APPENDIX_SIGNATURE)
    battery = appendix_check(sig, args.trials, args.seed)
    report = {
        "provenance": _provenance(sig, args.volume_sign, None, args.seed),
        "battery": battery,
        "passed": battery["passed"],
    }
    return (0 if battery["passed"] else 1), report


# -- entry point -------------------------------------------------------------------------


# argparse options of the flags that only some subcommands read
_OPTIONAL_FLAGS = {
    "--samples": {"type": _count, "metavar": "N"},
    "--trials": {"type": _count, "metavar": "N"},
    "--volume-sign": {"choices": ("+", "-")},
}


class _Parser(argparse.ArgumentParser):
    """Reports an invalid invocation on one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser; its rows are built per call, so they name the handlers bound now."""
    parser = _Parser(
        prog=TOOL_NAME,
        description="Exact arithmetic engine for Clifford algebra on exterior forms.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    vol = {"--volume-sign": "+"}
    # name, help, flag defaults, handler, whether --signature is required, positional
    table = (
        ("check-algebra", "replay the product-level property suite", {"--trials": None},
         cmd_check_algebra, False, None),
        ("build-rep", "construct and verify a matrix representation", vol,
         cmd_build_rep, True, None),
        ("verify-fierz", "run the quadratic identity suite on seeded spinors",
         {"--samples": 20, **vol}, cmd_verify_fierz, True, None),
        ("classify", "classify one spinor or covariant set from a JSON file", vol,
         cmd_classify, True, "SPINOR_FILE"),
        ("census", "bucket seeded random spinors by covariant pattern",
         {"--samples": 1000, **vol}, cmd_census, True, None),
        ("appendix-check", "replay the twelve product expansions", {"--trials": 100, **vol},
         cmd_appendix_check, False, None),
    )
    for name, help_text, defaults, handler, needs_signature, positional in table:
        sub = commands.add_parser(name, help=help_text)
        # the flags every subcommand reads, plus the row's (flag to default)
        sub.add_argument("--signature", type=_parse_signature, default=None, metavar="p,q")
        sub.add_argument("--seed", type=int, default=0)
        for flag, default in defaults.items():
            sub.add_argument(flag, default=default, **_OPTIONAL_FLAGS[flag])
        sub.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
        sub.add_argument("--out", default=None, metavar="PATH")
        if positional:
            sub.add_argument(positional.lower(), metavar=positional)
        sub.set_defaults(handler=handler, needs_signature=needs_signature)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "volume_sign" in args:
        args.volume_sign = -1 if args.volume_sign == "-" else 1
    try:
        if args.needs_signature and args.signature is None:
            raise UnsupportedSignature("this subcommand requires --signature p,q")
        status, report = args.handler(args)
    except (FormParseError, DimensionMismatch, UnsupportedSignature) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2
    except (NotASpinor, StructureError) as exc:
        status, report = 1, {
            "provenance": _provenance(args.signature, None, None, args.seed),
            "error": str(exc),
            "passed": False,
        }
    try:
        _emit(report, args)
    except OSError as exc:
        target = repr(args.out) if args.out else "stdout"
        print(f"{TOOL_NAME}: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
