import os
import sys

# ``-m`` and ``-c`` put the working directory first on the path: no module of
# the repository documented there, such as a logging.py, may shadow another.
if sys.path and not getattr(sys.flags, "safe_path", False) and sys.path[0] in ("", os.getcwd()):
    del sys.path[0]

from repodoc.cli import main  # noqa: E402

raise SystemExit(main())
