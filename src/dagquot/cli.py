"""Batch front-end: realize -> verify -> report pipelines over JSON files.

Exit codes: 0 = pass, 1 = math-level failure or inconclusive verification,
2 = input error (bad JSON, cycles, rank mismatches, unknown names).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import ceplab, dag as dagmod
from .realizer import (
    BasisNotFreeError,
    cep_transfer,
    embedding_from_json,
    lattice_to_dot,
    presentations_to_json,
    realization_from_json,
    realization_to_text,
    realize,
)
from .verifier import certificate_to_json, check_certificate_detailed, report_chunks, verify_all

# What reading an input file can raise: an unreadable file, bad JSON or a
# domain error (each a ValueError), a missing key, JSON of the wrong shape
# (a list where an object belongs, a number where a word belongs), or JSON
# nested deeper than the decoder's stack.
INPUT_ERRORS = (OSError, KeyError, TypeError, AttributeError, ValueError, RecursionError)


def _input_error(exc: Exception) -> int:
    """Report an input file that could not be read as one line; exit code 2."""
    if isinstance(exc, KeyError):
        detail = f"missing key {exc}"
    elif isinstance(exc, RecursionError):
        detail = f"input nests too deeply ({exc})"
    elif isinstance(exc, (TypeError, AttributeError)):
        detail = f"JSON of the wrong shape ({exc})"
    else:
        detail = str(exc)
    print(f"error: {detail}", file=sys.stderr)
    return 2


def _read(path: Path, from_json):
    """``from_json`` of the JSON in the UTF-8 file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh))


def _write_text(path: Path, *chunks: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _write_json(path: Path, data) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_report(path: Path, report) -> None:
    _write_text(path, *report_chunks(report), "\n")


def _outdir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def cmd_realize(args) -> int:
    try:
        d = _read(args.input, dagmod.from_json)
    except INPUT_ERRORS as exc:
        return _input_error(exc)
    r = realize(d)
    report = verify_all(r, args.bound)
    out = _outdir(args)
    _write_text(out / "realization.json", realization_to_text(r))
    _write_report(out / "report.json", report)
    _write_text(out / "lattice.dot", lattice_to_dot(r))
    if args.dot:
        _write_text(out / "dag.dot", dagmod.to_dot(d))
    print(
        f"realized {len(d.vertices)} vertices in ambient free rank "
        f"{r.ambient_rank}; verdict: {'pass' if report.verdict else 'FAIL'}"
    )
    return 0 if report.verdict else 1


def cmd_verify(args) -> int:
    try:
        r = _read(args.input, realization_from_json)
    except INPUT_ERRORS as exc:
        return _input_error(exc)
    report = verify_all(r, args.bound)
    out = _outdir(args)
    _write_report(out / "report.json", report)
    if args.dot:
        _write_text(out / "lattice.dot", lattice_to_dot(r))
    print(f"verdict: {'pass' if report.verdict else 'FAIL'} "
          f"({report.inconclusive} inconclusive)")
    return 0 if report.verdict else 1


def cmd_transfer(args) -> int:
    try:
        r = _read(args.input, realization_from_json)
        e = _read(args.embedding, embedding_from_json)
        presentations = cep_transfer(r, e)
    except BasisNotFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        # also covers RealizerError, rank mismatches and missing basis words
        return _input_error(exc)
    _write_json(_outdir(args) / "presentations.json", presentations_to_json(presentations, e.note))
    print(f"transferred {len(presentations)} vertex presentations "
          f"(conditional on CEP of the supplied basis)")
    return 0


def cmd_cep(args) -> int:
    try:
        if args.group:
            g = ceplab.builtin_group(args.group)
            label = args.group
        else:
            g = ceplab.load_group(args.input)
            label = str(args.input)
    except INPUT_ERRORS as exc:
        return _input_error(exc)
    result: dict = {"group": label, "order": g.order}
    code = 0
    if args.scan:
        rep = ceplab.cep_transitivity_scan(g)
        result["transitivity_scan"] = {
            "chains_checked": rep.chains_checked,
            "violations": [
                {"kind": kind, "inner": g.name_set(h), "middle": g.name_set(k)}
                for kind, h, k in rep.violations
            ],
        }
        if not rep.ok:
            code = 1
    if args.subgroup:
        try:
            h = ceplab.subgroup_from_generator_names(g, args.subgroup)
        except ceplab.GroupTableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        is_cep, violation = ceplab.is_cep_finite(g, h)
        result["subgroup"] = g.name_set(h.elements)
        result["is_cep"] = is_cep
        if violation is not None:
            result["violation"] = _violation_json(g, violation)
        if args.max_s is not None:
            witness = ceplab.is_almost_cep_finite(g, h, args.max_s)
            result["almost_cep_witness"] = (
                None if witness is None else g.name_set(witness)
            )
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        _write_text(_outdir(args) / "cep.json", text + "\n")
    print(text)
    return code


def _violation_json(g, violation: ceplab.CepViolation | None) -> dict | None:
    if violation is None:
        return None
    return {
        "normal_subgroup": g.name_set(violation.seed_normal),
        "intersection_with_ambient_closure": g.name_set(violation.intersection),
    }


def cmd_demo(args) -> int:
    if args.name == "s4-d4-cep":
        return _demo_s4_d4(args)
    cert = ceplab.free_counterexample_demo()
    ok, problems = check_certificate_detailed(None, cert)
    out = _outdir(args)
    _write_json(out / "certificate.json", certificate_to_json(cert))
    lines = ["free-group congruence extension counterexample", ""]
    lines += [f"* {note}" for note in cert.notes]
    lines.append("")
    for t in cert.traces:
        shape = "identity" if t.expected.is_identity else "nontrivial"
        lines.append(f"checked {t.label}: image is {shape}")
    for f in cert.word_facts:
        lines.append(f"checked {f.label}: substitution identity holds")
    lines.append("")
    lines.append(f"certificate re-check: {'pass' if ok else 'FAIL: ' + '; '.join(problems)}")
    _write_text(out / "transcript.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


def _demo_s4_d4(args) -> int:
    g, h = ceplab.d4_in_s4()
    is_cep, violation = ceplab.is_cep_finite(g, h)
    verified = False
    if violation is not None:
        # every conjugate, not the closure memo that is_cep_finite just read
        conjugates = {g.conj(a, x) for a in violation.seed_normal for x in range(g.order)}
        closure = ceplab.subgroup_generated(g, conjugates).elements
        verified = (closure & h.elements) == violation.intersection and (
            violation.intersection != violation.seed_normal
        )
    out = _outdir(args)
    result = {
        "group": "s4",
        "subgroup": g.name_set(h.elements),
        "is_cep": is_cep,
        "violation": _violation_json(g, violation),
        "recheck": verified,
    }
    _write_json(out / "cep_violation.json", result)
    lines = [
        "dihedral Sylow subgroup of the symmetric group on 4 points",
        f"CEP holds: {is_cep}",
    ]
    if violation is not None:
        lines.append(
            "violating normal subgroup: "
            + ", ".join(g.name_set(violation.seed_normal))
        )
        lines.append(
            "meets ambient closure in: "
            + ", ".join(g.name_set(violation.intersection))
        )
        lines.append(f"both sides recomputed and unequal: {verified}")
    _write_text(out / "transcript.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if (not is_cep and verified) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="dagquot",
        description="realize colored DAGs as normal-subgroup lattices of free "
        "groups, verify with algebraic certificates, transfer along CEP embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="realize a colored DAG JSON file and verify")
    p.set_defaults(run=cmd_realize)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--dot", action="store_true", help="also emit the input DAG as DOT")

    p = sub.add_parser("verify", help="re-verify a stored realization")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("transfer", help="rewrite a realization along a CEP embedding")
    p.set_defaults(run=cmd_transfer)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--embedding", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("cep", help="finite-group CEP checks")
    p.set_defaults(run=cmd_cep)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", choices=ceplab.builtin_names())
    source.add_argument("--input", type=Path, help="group JSON (table or permutations)")
    p.add_argument("--subgroup", nargs="+", metavar="ELEM",
                   help="generator names of the subgroup, e.g. '(1 2 3 4)'")
    p.add_argument("--scan", action="store_true", help="run the transitivity scan")
    p.add_argument("--max-s", type=int, default=None,
                   help="also search for an almost-CEP witness set up to this size")
    p.add_argument("--out", type=Path)

    p = sub.add_parser("demo", help="reproduce a bundled worked example")
    p.set_defaults(run=cmd_demo)
    p.add_argument("name", choices=["sec3-counterexample", "s4-d4-cep"])
    p.add_argument("--out", required=True, type=Path)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "bound", 1) < 1:
        print("error: --bound must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "max_s", None) is not None and args.max_s < 0:
        print("error: --max-s must be >= 0", file=sys.stderr)
        return 2
    if getattr(args, "max_s", None) is not None and not args.subgroup:
        print("error: --max-s needs --subgroup", file=sys.stderr)
        return 2
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
