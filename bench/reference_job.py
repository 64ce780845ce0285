"""A fixed, stdlib-only job whose run time tracks the host's speed.

Usage: python3 bench/reference_job.py

The timed runs execute it after every repodoc command and rescale their
times by how long it took (see run.py). Like repodoc, it starts a fresh
interpreter, parses Python source with ``ast`` and round-trips JSON; unlike
repodoc, it never changes, so its time moves only with the machine.
"""

import ast
import json

SOURCE = "\n".join(
    f"def f{i}(a, b={i}):\n    '''Doc {i}.'''\n    return [a * b + g(x) for x in range({i % 7})]\n"
    for i in range(400)
)

for _ in range(6):
    tree = ast.parse(SOURCE)
    doc = {
        node.name: {
            "args": [arg.arg for arg in node.args.args],
            "line": node.lineno,
            "doc": ast.get_docstring(node),
        }
        for node in tree.body
    }
    json.loads(json.dumps(doc, indent=2, sort_keys=True))
