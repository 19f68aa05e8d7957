"""Command-line surface: recognize, mms, allocate, verify, gen, batch.

Exit codes: 0 success / certificate passed, 1 certificate failed, 2 parse
or validation error or a file that cannot be read or written, 3 unsupported
class or infeasible parameters, 4 exhaustive-search size cap exceeded.
"""

import argparse
import csv
import sys
import time
from io import StringIO

from . import generators, io, oracle
from .blockcactus import allocate_block_cactus
from .core import (
    ClassMismatchError,
    FairDivisionError,
    Instance,
    InvalidInputError,
    SizeLimitError,
    UndefinedMmsError,
    UnsupportedBlockError,
    as_value,
    check_instance,
    value_str,
)
from .graphs import _sorted_blocks, recognize
from .multipartite import allocate_multipartite
from .splitgraph import allocate_split
from .verify import check_allocation

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_SIZE_CAP = 4

ALLOCATORS = [
    ("split", allocate_split),
    ("multipartite", allocate_multipartite),
    ("block-cactus", allocate_block_cactus),
]


def _load_valid_instance(path: str) -> Instance:
    inst, _names = io.load_instance(path)
    check_instance(inst)
    return inst


def cmd_recognize(args) -> int:
    inst = _load_valid_instance(args.file)
    witness = recognize(inst.graph)
    tokens = sorted(witness.flags)
    if "connected" not in witness.flags:
        print("connected=false")
    print(" ".join(tokens) if tokens else "(no class flags)")
    if witness.parts is not None:
        sizes = ",".join(str(size) for size in sorted(map(len, witness.parts)))
        print(f"parts=[{sizes}]")
    if witness.split_pair is not None:
        k, i = witness.split_pair
        print(f"split clique={len(k)} independent={len(i)}")
    if witness.has("connected") and len(inst.graph) >= 1:
        # The one component's search, which the block flags above ran.
        pairs = next(witness.component_blocks())
        _, cuts = _sorted_blocks(pairs)
        print(f"blocks={len(pairs)} cut_vertices={cuts.bit_count()}")
    return EXIT_OK


def cmd_mms(args) -> int:
    inst = _load_valid_instance(args.file)
    chosen = [a for a in inst.agents if args.agent is None or a.id == args.agent]
    if args.agent is not None and not chosen:
        raise InvalidInputError(f"no agent with id {args.agent}")
    for a in sorted(chosen, key=lambda a: a.id):
        pm = oracle.pmms(inst.graph, a, inst.n)
        try:
            mm = value_str(oracle.mms(inst.graph, a, inst.n).value)
        except UndefinedMmsError:
            mm = "undefined"
        print(f"agent {a.id} n={inst.n} mms={mm} pmms={value_str(pm.value)}")
    return EXIT_OK


def _emit(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, or to stdout when no file is named."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out}: {exc}") from exc


def _dispatch(inst: Instance, wanted: str):
    if wanted != "auto":
        for name, fn in ALLOCATORS:
            if name == wanted:
                return name, fn(inst)
        raise InvalidInputError(f"unknown class {wanted!r}")
    last: ClassMismatchError | None = None
    for name, fn in ALLOCATORS:
        try:
            return name, fn(inst)
        except ClassMismatchError as exc:
            last = exc
    raise ClassMismatchError(f"no allocator accepts this graph: {last}")


def cmd_allocate(args) -> int:
    inst = _load_valid_instance(args.file)
    name, alloc = _dispatch(inst, getattr(args, "class"))
    cert = check_allocation(inst, alloc, alloc.target_alpha)
    _emit(io.canonical_dumps(io.allocation_to_doc(inst, cert)), args.out)
    status = "pass" if cert.passes else "FAIL"
    print(
        f"class={name} alpha={value_str(cert.alpha_target)} "
        f"min_ratio={value_str(cert.min_ratio)} {status}",
        file=sys.stderr,
    )
    for note in cert.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK if cert.passes else EXIT_CERT_FAIL


def cmd_verify(args) -> int:
    inst = _load_valid_instance(args.instance)
    alloc = io.load_allocation(args.allocation)
    alpha = as_value(args.alpha)
    cert = check_allocation(inst, alloc, alpha)
    print(
        f"alpha={value_str(alpha)} min_ratio={value_str(cert.min_ratio)} "
        f"structural_ok={str(cert.structural_ok).lower()} "
        f"{'pass' if cert.passes else 'FAIL'}"
    )
    for note in cert.notes:
        print(f"note: {note}")
    return EXIT_OK if cert.passes else EXIT_CERT_FAIL


def _generate(cls: str, seed: int, vertices: int, agents: int, max_utility: int):
    """The generated instance, or None after reporting sizes the generator rejects."""
    try:
        return generators.generate(cls, seed, vertices, agents, max_utility)
    except InvalidInputError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return None


def cmd_gen(args) -> int:
    inst = _generate(getattr(args, "class"), args.seed, args.vertices, args.agents, args.max_utility)
    if inst is None:
        return EXIT_UNSUPPORTED
    _emit(io.canonical_dumps(io.instance_to_doc(inst)), args.out)
    return EXIT_OK


def _trials(config) -> list[tuple[str, int, int, int, int, int]]:
    """Every trial of a batch config, checked before any of them runs.

    Each trial is (class, count, seed, vertices, agents, max_utility).
    """
    if not isinstance(config, dict) or not isinstance(config.get("trials", []), list):
        raise InvalidInputError('batch config must be {"trials": [...]}')
    classes = sorted(generators.GENERATORS)
    trials = []
    for trial in config.get("trials", []):
        if not isinstance(trial, dict):
            raise InvalidInputError("each trial must be an object")
        cls = trial.get("class")
        if cls not in classes:
            problem = f'unknown "class" {cls!r}' if "class" in trial else 'missing "class"'
            raise InvalidInputError(f"bad trial: {problem}, expected one of {classes}")
        count = io.require_int(trial.get("count", 1), "trial count")
        if count < 0:
            raise InvalidInputError(f"trial count must not be negative, got {count}")
        defaults = [("seed", 0), ("vertices", 10), ("agents", 2), ("max_utility", 20)]
        ints = [io.require_int(trial.get(k, d), f"trial {k}") for k, d in defaults]
        trials.append((cls, count, *ints))
    return trials


BATCH_FIELDS = (
    "instance_id", "class", "n_agents", "n_vertices", "n_types",
    "alpha_target", "min_ratio", "pass", "runtime_ms",
)


def cmd_batch(args) -> int:
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(BATCH_FIELDS)
    all_passed = True
    for cls, count, base_seed, vertices, agents, max_utility in _trials(io.read_json(args.config)):
        for t in range(count):
            seed = base_seed + t
            inst = _generate(cls, seed, vertices, agents, max_utility)
            if inst is None:
                return EXIT_UNSUPPORTED
            started = time.perf_counter()
            name, alloc = _dispatch(inst, cls)
            cert = check_allocation(inst, alloc, alloc.target_alpha)
            elapsed_ms = int((time.perf_counter() - started) * 1000)
            all_passed = all_passed and cert.passes
            writer.writerow(
                [
                    f"{cls}-{seed}",
                    name,
                    inst.n,
                    len(inst.graph),
                    len({a.type_id for a in inst.agents}),
                    value_str(cert.alpha_target),
                    value_str(cert.min_ratio),
                    "true" if cert.passes else "false",
                    elapsed_ms,
                ]
            )
    _emit(text.getvalue(), args.out)
    return EXIT_OK if all_passed else EXIT_CERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfair",
        description="Connected fair division on structured graphs with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="report graph class flags for an instance file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("mms", help="print exact maximin shares")
    p.add_argument("file")
    p.add_argument("--agent", type=int, default=None)
    p.set_defaults(fn=cmd_mms)

    p = sub.add_parser("allocate", help="allocate and self-verify")
    p.add_argument("file")
    p.add_argument(
        "--class",
        choices=["auto", "block-cactus", "multipartite", "split"],
        default="auto",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("verify", help="check an allocation file against an instance")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--alpha", required=True, help='target ratio as "p/q"')
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--class", choices=sorted(generators.GENERATORS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--max-utility", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("batch", help="run generated trials and emit a CSV report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeLimitError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (ClassMismatchError, UnsupportedBlockError, UndefinedMmsError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # argument-level value failures that no parser above maps
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FairDivisionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
