"""``jointlab trace``: run the proof pipeline and narrate it."""

from __future__ import annotations

from . import load_lines


def run(args) -> int:
    from ..files import write_json
    from ..pipeline import trace, trace_to_dict

    config = load_lines(args.file)
    result = trace(config)
    for step in result.narrative:
        extras = ", ".join(f"{k}={v}" for k, v in step.detail.items())
        line = f"[{step.name}] {step.verdict}"
        if extras:
            line += f" ({extras})"
        print(line)
    if args.json:
        write_json(args.json, trace_to_dict(result))
        print(f"trace written to {args.json}")
    return 0


def add_parsers(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--json", default=None, help="also write a JSON trace")
