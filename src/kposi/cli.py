"""Command-line front end.

Subcommands cover compounds, wedges, sign-regularity classification,
k-diagonal stability certificates, the principal-minor necessary
screens, cyclic matrix construction/analysis, nonlinear simulation, and
wedge-trajectory Lyapunov runs.  Matrices travel as JSON documents
{"rows", "cols", "data", optional "scale": "p/q"}; trajectory output is
CSV with 17-significant-digit floats.

Exit codes: 0 success, 1 negative verdict, 2 usage error, 3 numeric or
capacity error.  KPOSI_TOL overrides the default tolerance when --tol
is not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np

from .compound import mult_compound, wedge
from .cyclic import CyclicSpec, analyze_cyclic, build_cyclic
from .errors import CapacityError, DomainError, NumericError, PreconditionError
from .matcore import LexIndexSet, compound_size, minor_tol, pd_tol, zero_tol
from .nonlinear import (
    NonlinearSystem,
    ScalarMap,
    export_trajectory_csv,
    lyapunov_decrement_report,
    simulate,
    wedge_trajectory,
    write_csv,
)
from .signreg import NONE, classify_sign_regularity
from .stability import (
    CertificationFailure,
    cayley,
    certify_k_diag_stability,
    necessary_ct_diag,
    necessary_dt_diag,
    solve_top_compound_diagonal,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# JSON ingestion / emission


def _load_json(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from exc
    return json.loads(text), hashlib.sha256(raw).hexdigest()


def _float_array(obj, what: str) -> np.ndarray:
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} is not a rectangular array of numbers: {exc}") from exc


def _dimension(doc: dict, key: str) -> int:
    """A matrix document's `key` field: a JSON integer (2 or 2.0, not 2.5, "2" or true)."""
    value = doc[key]
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise DomainError(f"matrix document {key!r} must be an integer, got {value!r}")
    return int(value)


def parse_matrix_document(doc) -> np.ndarray:
    """Decode {"rows", "cols", "data", optional "scale": "p/q"}."""
    if not isinstance(doc, dict):
        raise DomainError("matrix document must be a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise DomainError(f"matrix document is missing the {key!r} field")
    arr = _float_array(doc["data"], "matrix document 'data'")
    shape = (_dimension(doc, "rows"), _dimension(doc, "cols"))
    if arr.ndim != 2 or arr.shape != shape:
        raise DomainError(f"data has shape {arr.shape}, expected {shape}")
    scale = doc.get("scale")
    if scale is not None:
        try:
            frac = Fraction(str(scale))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"scale {scale!r} is not a valid p/q rational") from exc
        try:
            # an in-range scale can still take finite data out of range
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = arr * frac.numerator / frac.denominator
                # where the product with p alone overflows, divide first
                redo = ~np.isfinite(scaled) & np.isfinite(arr)
                if redo.any():
                    scaled[redo] = arr[redo] / frac.denominator * frac.numerator
        except OverflowError as exc:  # p or q beyond the float range, as for 1e400
            raise DomainError(f"scale {scale!r} is outside the floating-point range") from exc
        if not np.isfinite(scaled).all() and np.isfinite(arr).all():
            raise DomainError(
                f"scale {scale!r} takes the matrix data outside the floating-point range"
            )
        arr = scaled
    return arr


def matrix_document(arr: np.ndarray) -> dict:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(v) for v in row] for row in arr],
    }


def _load_matrix(path: str) -> tuple[np.ndarray, str]:
    doc, digest = _load_json(path)
    if isinstance(doc, dict) and "data" in doc and "rows" not in doc:
        # plain vector file {"data": [...]}; treat as a single column
        vec = _float_array(doc["data"], "vector document 'data'")
        if vec.ndim != 1:
            raise DomainError("vector document 'data' must be a flat list")
        return vec[:, None], digest
    return parse_matrix_document(doc), digest


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be a number, got {value!r}") from exc


def _parse_scalar_map(obj) -> ScalarMap:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("each map must be an object with a 'kind' field")
    kind = str(obj["kind"]).lower()
    if kind == "identity":
        return ScalarMap.identity()
    if kind == "linear":
        if "c" not in obj:
            raise DomainError("linear map needs a gain field 'c'")
        return ScalarMap.linear(_number(obj["c"], "linear map gain 'c'"))
    if kind == "power":
        if "p" not in obj:
            raise DomainError("power map needs an exponent field 'p'")
        return ScalarMap.power(_number(obj["p"], "power map exponent 'p'"))
    if kind == "table":
        if "points" not in obj:
            raise DomainError("table map needs a 'points' list of [z, phi] pairs")
        pairs = obj["points"]
        if not isinstance(pairs, list) or any(
            not isinstance(pt, list) or len(pt) != 2 for pt in pairs
        ):
            raise DomainError("table map 'points' must be a list of [z, phi] pairs")
        return ScalarMap.table(
            [(_number(z, "table point"), _number(v, "table point")) for z, v in pairs]
        )
    raise DomainError(f"unknown map kind {obj['kind']!r}")


def _load_system(path: str) -> tuple[NonlinearSystem, str]:
    doc, digest = _load_json(path)
    if not isinstance(doc, dict):
        raise DomainError("system document must be a JSON object")
    for key in ("A", "maps", "domain"):
        if key not in doc:
            raise DomainError(f"system document is missing the {key!r} field")
    A = parse_matrix_document(doc["A"])
    if not isinstance(doc["maps"], list):
        raise DomainError("system document 'maps' must be a list of map objects")
    maps = tuple(_parse_scalar_map(m) for m in doc["maps"])
    if not isinstance(doc["domain"], list) or len(doc["domain"]) != 2:
        raise DomainError("domain must be a [lo, hi] pair")
    domain = tuple(_number(v, "domain bound") for v in doc["domain"])
    validate = doc.get("validate", True)
    if not isinstance(validate, bool):
        raise DomainError(f"system document 'validate' must be true or false, got {validate!r}")
    return NonlinearSystem(A, maps, domain, validate=validate), digest


def _report(command: str, digest: str, verdicts: dict, tolerances: dict) -> dict:
    return {
        "command": command,
        "inputs_digest": digest,
        "verdicts": verdicts,
        "tolerances": tolerances,
    }


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _encode(obj, names=None):
    """A result object as JSON values: a dataclass as its fields in
    declaration order (or the given names, in their order), a LexIndexSet
    as its 1-based indices, an array as a list of floats, a tuple as a list.
    """
    if isinstance(obj, LexIndexSet):
        return list(obj.indices)
    if dataclasses.is_dataclass(obj):
        names = names or [f.name for f in dataclasses.fields(obj)]
        return {name: _encode(getattr(obj, name)) for name in names}
    if isinstance(obj, np.ndarray):
        return np.asarray(obj, dtype=float).tolist()
    if isinstance(obj, tuple):
        return [_encode(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compound(args) -> int:
    A, _ = _load_matrix(args.infile)
    _emit(matrix_document(mult_compound(A, args.k)))
    return EXIT_OK


def _cmd_wedge(args) -> int:
    M, _ = _load_matrix(args.infile)
    _emit(_encode(wedge([M[:, j] for j in range(M.shape[1])])))
    return EXIT_OK


def _cmd_classify(args) -> int:
    A, digest = _load_matrix(args.infile)
    sc = classify_sign_regularity(A, args.k, args.tol)
    _emit(_report("classify", digest, _encode(sc), {"zero_tol": zero_tol(args.tol)}))
    return EXIT_VERDICT if sc.verdict == NONE else EXIT_OK


def _cmd_certify(args) -> int:
    A, digest = _load_matrix(args.infile)
    result = certify_k_diag_stability(A, args.k, args.tol)
    tolerances = {"zero_tol": zero_tol(args.tol), "pd_tol": pd_tol(args.tol)}
    fields = _encode(result)
    if isinstance(result, CertificationFailure):
        # a failure's reason is reported as "failure", right after "certified"
        verdicts = {"certified": False, "failure": fields.pop("reason"), **fields}
        _emit(_report("certify", digest, verdicts, tolerances))
        return EXIT_VERDICT
    _emit(_report("certify", digest, {"certified": True, **fields}, tolerances))
    return EXIT_OK


def _cmd_dlf_recover(args) -> int:
    D, _ = _load_matrix(args.infile)
    if 1 in D.shape and D.shape[0] != D.shape[1]:
        D = D.ravel()  # accept a single row/column of diagonal entries
    p = solve_top_compound_diagonal(D)
    _emit(matrix_document(np.diag(p)))
    return EXIT_OK


def _cmd_cayley(args) -> int:
    A, _ = _load_matrix(args.infile)
    _emit(matrix_document(cayley(A)))
    return EXIT_OK


def _cmd_check_necessary(args) -> int:
    A, digest = _load_matrix(args.infile)
    screen = necessary_dt_diag if args.mode == "dt" else necessary_ct_diag
    rep = screen(A, args.tol)
    verdicts = _encode(rep)
    # the failing minor is reported last, as "witness" {kappa, value}
    failing = verdicts.pop("failing_minor")
    verdicts["witness"] = dict(zip(("kappa", "value"), failing)) if failing else None
    _emit(_report("check-necessary", digest, verdicts, {"minor_tol": minor_tol(args.tol)}))
    return EXIT_OK if rep.passed else EXIT_VERDICT


def _cmd_cyclic(args) -> int:
    spec = CyclicSpec(n=len(args.alphas), alphas=args.alphas, betas=args.betas, ell=args.ell)
    digest = hashlib.sha256(
        repr((spec.alphas, spec.betas, spec.ell)).encode()
    ).hexdigest()
    if not args.analyze:
        _emit(matrix_document(build_cyclic(spec)))
        return EXIT_OK
    analysis = analyze_cyclic(spec, args.tol)
    verdicts = _encode(analysis)
    # the order ell is the spec's, so its sign class is reported without k
    # and without a conflict witness
    verdicts["sign_class_at_ell"] = _encode(
        analysis.sign_class_at_ell, ("verdict", "signature", "witness_min")
    )
    _emit(_report("cyclic", digest, verdicts, {"zero_tol": zero_tol(args.tol)}))
    return EXIT_OK if analysis.ell_diag_stable else EXIT_VERDICT


def _cmd_simulate(args) -> int:
    sys_, _ = _load_system(args.system)
    res = simulate(sys_, np.asarray(args.x0, dtype=float), args.steps)
    write_csv(sys.stdout, [f"x{i + 1}" for i in range(sys_.n)], res.states)
    if res.exit_step is not None:
        sys.stderr.write(
            f"trajectory left the state domain at step {res.exit_step}; output truncated\n"
        )
    return EXIT_OK


def _cmd_wedge_sim(args) -> int:
    sys_, digest = _load_system(args.system)
    inits_mat, _ = _load_matrix(args.initials)
    if inits_mat.shape[1] != args.k:
        raise DomainError(
            f"initials file has {inits_mat.shape[1]} columns, expected k={args.k}"
        )
    initials = [inits_mat[:, j] for j in range(args.k)]
    tolerances = {"zero_tol": zero_tol(args.tol)}
    cert_info = None
    if args.certify:
        # --tol also sets the Stein margin the certificate is checked at
        tolerances["pd_tol"] = pd_tol(args.tol)
        result = certify_k_diag_stability(sys_.A, args.k, args.tol)
        if isinstance(result, CertificationFailure):
            verdicts = {"certified": False, "failure": result.reason}
            sys.stderr.write(json.dumps(_report("wedge-sim", digest, verdicts, tolerances)) + "\n")
            return EXIT_VERDICT
        d = result.d
        cert_info = _encode(result, ("stein_margin", "compound_spectral_radius"))
    else:
        d = np.ones(compound_size(args.k, sys_.n))
    traj = wedge_trajectory(sys_, args.k, initials, d, args.steps, tol=args.tol)
    export_trajectory_csv(traj, sys.stdout, include_states=args.include_states)
    # of the trajectory only these fields, in this order: not its state series
    verdicts = {
        **_encode(lyapunov_decrement_report(traj, args.tol)),
        **_encode(traj, ("v_increase_steps", "exit_step", "d_used")),
        "certificate": cert_info,
    }
    sys.stderr.write(json.dumps(_report("wedge-sim", digest, verdicts, tolerances)) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bundled worked-example regressions


def _cmd_paper_examples(_args) -> int:
    from .examples import paper_example_checks  # loaded by this subcommand only

    results = []
    for label, ok, detail in paper_example_checks():
        results.append(ok)
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
    print(f"{sum(results)}/{len(results)} checks passed")
    return EXIT_OK if all(results) else EXIT_VERDICT


# ---------------------------------------------------------------------------
# parser / dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kposi",
        description="Compound matrices, sign-regularity, and k-diagonal stability tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_in(p):
        p.add_argument("--in", dest="infile", required=True)

    def add_k(p):
        p.add_argument("-k", type=int, required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    def command(name, func, help, *adders):
        p = sub.add_parser(name, help=help)
        for add in adders:
            add(p)
        p.set_defaults(func=func)
        return p

    command("compound", _cmd_compound, "k-th multiplicative compound of a matrix", add_in, add_k)
    command("wedge", _cmd_wedge, "wedge product of the columns of a matrix", add_in)
    command("classify", _cmd_classify, "sign-regularity classification at order k",
            add_in, add_k, add_tol)
    command("certify", _cmd_certify, "diagonal Stein certificate for the k-th compound",
            add_in, add_k, add_tol)
    command("dlf-recover", _cmd_dlf_recover, "solve P^(n-1) = D for a positive diagonal P", add_in)
    command("cayley", _cmd_cayley, "the transform -(A+I)(A-I)^{-1}", add_in)

    p = command("check-necessary", _cmd_check_necessary, "principal-minor necessary screens",
                add_in)
    p.add_argument("--mode", choices=("dt", "ct"), required=True)
    add_tol(p)

    p = command("cyclic", _cmd_cyclic, "build or analyze a cyclic chain matrix")
    p.add_argument("--alphas", type=float, nargs="+", required=True)
    p.add_argument("--betas", type=float, nargs="+", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--analyze", action="store_true")
    add_tol(p)

    p = command("simulate", _cmd_simulate, "iterate x(j+1) = A phi(x(j)), CSV states out")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", type=float, nargs="+", required=True)
    p.add_argument("--steps", type=int, required=True)

    p = command("wedge-sim", _cmd_wedge_sim, "wedge trajectory with Lyapunov series, CSV j,V out")
    p.add_argument("--system", required=True)
    p.add_argument("--initials", required=True, help="matrix JSON whose columns are the k starts")
    add_k(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--certify", action="store_true", help="derive D from a compound certificate")
    p.add_argument("--include-states", action="store_true")
    add_tol(p)

    command("paper-examples", _cmd_paper_examples, "run the bundled worked-example regressions")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser run_cli uses, built once per process: building it costs
    about as much as a small subcommand, and parsing leaves it unchanged."""
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON: {exc}\n")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (DomainError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (CapacityError, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
