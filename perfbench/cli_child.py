"""Run one `bayent.cli` command with spans around its layers (traced CLI runs only).

    python3 perfbench/cli_child.py OUT.json OP_ID VERB [ARGS...]

Behaves as `python -m bayent.cli VERB ARGS...` (same stdout, same exit
code) and writes the span aggregates of this process to OUT.json for
the parent run to merge. JSON loading and emitting are timed by wrapping
`json.load` and `json.dumps`, which the CLI calls for its input files and
its output.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402  (after the path set-up)
from bayent import cli  # noqa: E402


def main():
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.op = op_id
    if argv[0] == "simulate":
        with open(argv[argv.index("--scenario") + 1], encoding="utf-8") as fh:
            tracer.context["transition"] = json.load(fh)["transition"]["kind"]
    spans.install(tracer)
    dump = json.dump
    json.load = tracer.wrap(json.load, "cli.load_json")
    json.dumps = tracer.wrap(json.dumps, "cli.emit")
    code = cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
