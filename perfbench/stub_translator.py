"""Stub model behind ``ctmt decode --translator``.

Usage: python3 stub_translator.py CANNED_JSONL

CANNED_JSONL holds one ``[request, answer]`` pair per line, where the
request is a bridge line without its newline. Each request read from
standard input is answered with its canned continuation, or with an
empty line when the request is unknown. One request is in flight at a
time, so the stub costs one dictionary lookup and two pipe hops per line.
"""

import json
import sys


def main(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        answers = dict(json.loads(line) for line in f)
    read, write, flush = sys.stdin.readline, sys.stdout.write, sys.stdout.flush
    while True:
        request = read()
        if not request:
            return 0
        write(answers.get(request.rstrip("\n"), "") + "\n")
        flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
